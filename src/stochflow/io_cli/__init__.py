"""Configuration, persistence, and the command-line surface."""

from .config import ConfigError, RunConfig, emit_config, parse_config
from .storage import (
    HashMismatchError,
    MagicError,
    StorageError,
    TruncatedFileError,
    VersionError,
    load_container,
    load_trajectory,
    save_container,
    save_ensemble,
    save_trajectory,
)
from .cli import main

__all__ = [
    "ConfigError",
    "RunConfig",
    "emit_config",
    "parse_config",
    "HashMismatchError",
    "MagicError",
    "StorageError",
    "TruncatedFileError",
    "VersionError",
    "load_container",
    "load_trajectory",
    "save_container",
    "save_ensemble",
    "save_trajectory",
    "main",
]
