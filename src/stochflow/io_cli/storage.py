"""Self-identifying containers for trajectories and ensembles, on numpy's .npz.

A container is an uncompressed zip as `np.savez` writes it: one `.npy` member
per array, stored as <f8, <i8 or <u8 in C order, and a `header` member of
UTF-8 JSON (a uint8 array): `kind`, `version` (2; version 1 was a hand-rolled
layout that began b"SGNSBIN\\x00"), the producing config's `config_hash` and
a `meta` dict, in which integers such as 64-bit seeds stay exact.

The zip holds a CRC-32 of every member and the loader reads every member
whole, so a flipped payload bit never loads. Damage maps onto typed errors,
so callers can tell an incompatible file from a corrupt one: MagicError (a
foreign file), VersionError, HashMismatchError, TruncatedFileError (no zip end
record) and StorageError for the rest (a bad CRC, trailing bytes, a pickled or
malformed member).

Each value is stored once. Every file the program writes goes to a temporary
file beside its target, is fsynced and then replaces the target (`os.replace`):
a crash leaves the old file or the new one, never a torn one.
"""

from __future__ import annotations

import io
import json
import math
import os
import zipfile
from pathlib import Path

import numpy as np

from ..sde import SCHEMES, Trajectory

VERSION = 2
_OLD_MAGIC = b"SGNSBIN\x00"
_ZIP_MAGIC = b"PK\x03\x04"
_END_MAGIC = b"PK\x05\x06"    # end of central directory record, 22 bytes + comment
_DTYPES = {"f": "<f8", "u": "<u8", "i": "<i8", "b": "<i8"}
_NPY_HEADERS = {(1, 0): np.lib.format.read_array_header_1_0,
                (2, 0): np.lib.format.read_array_header_2_0}


class StorageError(IOError):
    """Base class for container format errors."""


class MagicError(StorageError):
    pass


class VersionError(StorageError):
    def __init__(self, found: int, expected: int):
        self.found, self.expected = found, expected
        super().__init__(f"container version {found}, this build reads version {expected}")


class HashMismatchError(StorageError):
    def __init__(self, found: str, expected: str):
        self.found, self.expected = found, expected
        super().__init__(f"config hash mismatch: file carries {found}, caller expects {expected}")


class TruncatedFileError(StorageError):
    pass


def _write_atomic(path, write) -> None:
    """Call `write(fh)` on a temporary file beside `path`, then replace `path`."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            write(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_container(path, kind: str, config_hash: str, meta: dict | None = None,
                   arrays: dict[str, np.ndarray] | None = None):
    if len(config_hash) != 64:
        raise StorageError(f"config hash must be 64 hex chars, got {len(config_hash)}")
    header = {"kind": kind, "version": VERSION, "config_hash": config_hash, "meta": meta or {}}
    members = {"header": np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)}
    for name, arr in (arrays or {}).items():
        arr = np.asarray(arr)
        if arr.dtype.kind not in _DTYPES or name in ("header", "file", "allow_pickle"):
            raise StorageError(f"array {name!r} of dtype {arr.dtype} cannot be stored")
        members[name] = np.asarray(arr, dtype=_DTYPES[arr.dtype.kind], order="C")
    _write_atomic(path, lambda fh: np.savez(fh, allow_pickle=False, **members))


def _read_array(zf: zipfile.ZipFile, info: zipfile.ZipInfo, dtypes) -> np.ndarray:
    """One .npy member, read whole so that zipfile checks its CRC."""
    data = zf.read(info)
    fh = io.BytesIO(data)
    shape, fortran_order, dtype = _NPY_HEADERS[np.lib.format.read_magic(fh)](fh)
    count = math.prod(shape)
    if fortran_order or dtype.str not in dtypes or fh.tell() + count * dtype.itemsize != len(data):
        raise StorageError(f"member {info.filename!r} is not a stored array")
    return np.frombuffer(data, dtype, count, fh.tell()).reshape(shape).copy()


def load_container(path, expect_kind: str | None = None, expect_hash: str | None = None) -> dict:
    with open(path, "rb") as fh:
        head = fh.read(len(_OLD_MAGIC))
        if head == _OLD_MAGIC:
            raise VersionError(1, VERSION)
        if not head.startswith(_ZIP_MAGIC):
            raise MagicError(f"{path} is not a stochflow container")
        size = fh.seek(0, os.SEEK_END)
        fh.seek(max(0, size - 22 - 0xFFFF))
        tail = fh.read()
        end = tail.rfind(_END_MAGIC)
        extra = len(tail) - end - 22 - int.from_bytes(tail[end + 20:end + 22], "little")
        if end < 0 or extra < 0:
            raise TruncatedFileError(f"{path} ends at byte {size} without its zip end record")
        if extra:
            raise StorageError(f"{extra} trailing bytes after the container's end record")
        try:
            with zipfile.ZipFile(fh) as zf:
                # a damaged directory entry can swallow the entries after it
                if len(zf.infolist()) != int.from_bytes(tail[end + 10:end + 12], "little"):
                    raise StorageError(f"{path}: its zip directory and end record disagree")
                header = json.loads(_read_array(zf, zf.getinfo("header.npy"), ("|u1",)).tobytes())
                if header["version"] != VERSION:
                    raise VersionError(header["version"], VERSION)
                kind, config_hash, meta = header["kind"], header["config_hash"], header["meta"]
                if expect_kind is not None and kind != expect_kind:
                    raise StorageError(f"container holds {kind!r}, expected {expect_kind!r}")
                if expect_hash is not None and config_hash != expect_hash:
                    raise HashMismatchError(config_hash, expect_hash)
                if not isinstance(meta, dict):
                    raise StorageError(f"container meta is a {type(meta).__name__}, not a dict")
                arrays = {i.filename.removesuffix(".npy"): _read_array(zf, i, _DTYPES.values())
                          for i in zf.infolist() if i.filename != "header.npy"}
        except StorageError:
            raise
        except (zipfile.BadZipFile, EOFError, OSError, KeyError, NotImplementedError,
                RuntimeError, TypeError, ValueError) as exc:  # what zipfile, json and numpy raise
            raise StorageError(f"{path} is damaged: {exc!r}") from None
    return {"kind": kind, "config_hash": config_hash, "meta": meta, "arrays": arrays}


# -- trajectories -------------------------------------------------------------


def _trajectory_meta_ok(m: dict) -> bool:
    # `type` keeps out bools; a comparison, unlike math.isfinite, takes ints of any size
    finite = [type(m.get(key)) in (int, float) and -math.inf < m[key] < math.inf
              for key in ("dt", "nu")]
    return (type(m.get("seed")) is int and type(m.get("store_every")) is int
            and m["store_every"] >= 1 and all(finite) and m.get("scheme") in SCHEMES
            and type(m.get("blowup_time")) in (int, float, type(None)))


def _trajectory_shapes_ok(t: Trajectory) -> bool:
    # on n saved steps: times and the four series (n+1,), states (n+1, N), increments (n, K)
    series = (t.energy, t.grad_energy, t.stoch_int, t.grad_int)
    return (t.times.ndim == 1 and all(x.shape == t.times.shape for x in series)
            and t.states.ndim == 2 and t.states.shape[0] == t.times.size
            and t.increments.ndim == 2 and t.increments.shape[0] == t.times.size - 1)


def save_trajectory(path, traj: Trajectory, config_hash: str):
    names = ("times", "states", "energy", "grad_energy", "stoch_int", "grad_int", "increments")
    meta = {"dt": float(traj.dt), "store_every": int(traj.store_every), "seed": int(traj.seed),
            "nu": float(traj.nu), "scheme": traj.scheme,
            "blowup_time": None if traj.blowup_time is None else float(traj.blowup_time)}
    save_container(path, "trajectory", config_hash, meta,
                   {name: getattr(traj, name) for name in names})


def load_trajectory(path, expect_hash: str | None = None) -> tuple[Trajectory, str]:
    box = load_container(path, expect_kind="trajectory", expect_hash=expect_hash)
    if not _trajectory_meta_ok(box["meta"]):
        raise StorageError(f"trajectory header holds a value of the wrong type: {box['meta']}")
    try:
        traj = Trajectory(**box["arrays"], **box["meta"])
    except TypeError as exc:
        raise StorageError(f"incomplete trajectory container: {exc}") from None
    if not _trajectory_shapes_ok(traj):
        shapes = {k: v.shape for k, v in box["arrays"].items()}
        raise StorageError(f"trajectory array shapes disagree on the saved grid: {shapes}")
    try:  # the diagnostics read times off the header's grid, so they must be its bits
        grid = np.arange(traj.times.size) * float(traj.dt * traj.store_every)
    except OverflowError:  # an int dt past the float range
        grid = np.array(())
    if traj.times.tobytes() != grid.tobytes():
        raise StorageError("trajectory times are not the header's grid of step dt * store_every")
    return traj, box["config_hash"]


# -- ensembles -----------------------------------------------------------------


def save_ensemble(path_prefix, ens, config_hash: str):
    """Probe, then summary container under one header: a failed save may leave new
    probes beside an old summary, which the headers tell apart, never the reverse."""
    summary, probes = Path(f"{path_prefix}.summary.bin"), Path(f"{path_prefix}.probes.bin")
    names = ("times", "energy", "grad_energy", "stoch_int", "grad_int", "sup_energy",
             "final_states", "blowup_step", "seeds", "initial_states")
    meta = {"dt": float(ens.dt), "n_steps": int(ens.n_steps), "store_every": int(ens.store_every),
            "base_seed": int(ens.base_seed), "members": int(ens.n_members),
            "nu": float(ens.system.nu), "scheme": ens.scheme}
    save_container(probes, "ensemble-probes", config_hash, meta,
                   {"probe_times": ens.probe_times, "probe_states": ens.probe_states})
    save_container(summary, "ensemble-summary", config_hash, meta,
                   {name: getattr(ens, name) for name in names})
    return {"summary": summary, "probes": probes}
