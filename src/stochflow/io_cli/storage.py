"""Self-identifying binary containers for trajectories and ensembles.

Layout (all integers little-endian):

    magic     8 bytes   b"SGNSBIN\\x00"
    version   u32       format version (currently 1)
    kind      16 bytes  ascii, zero padded ("trajectory", ...)
    hash      64 bytes  ascii hex sha256 of the producing config
    n_meta    u32       scalar metadata: per item u16 name length, name utf8,
                        f64 value
    n_text    u32       text metadata: per item u16+name, u16+utf8 value (seeds
                        in decimal: a double rounds integers past 2**53)
    n_arrays  u32       per array: u16+name, u8 dtype (0 = <f8, 1 = <i8,
                        2 = <u8), u8 ndim, ndim x u64 shape, raw data

Arrays are written C-order, so time series are time-major as integrated.
Loading validates structure strictly: wrong magic, unknown version, config
hash mismatch, and truncation are separate error types so callers can tell
an incompatible file from a corrupt one; any other damage raises StorageError.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from ..sde import Trajectory

MAGIC = b"SGNSBIN\x00"
VERSION = 1

_DTYPES = {0: np.dtype("<f8"), 1: np.dtype("<i8"), 2: np.dtype("<u8")}
_DTYPE_CODES = {dtype: code for code, dtype in _DTYPES.items()}


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
        super().__init__(
            f"config hash mismatch: file carries {found}, caller expects {expected}"
        )


class TruncatedFileError(StorageError):
    pass


def save_container(
    path,
    kind: str,
    config_hash: str,
    meta: dict[str, float] | None = None,
    text: dict[str, str] | None = None,
    arrays: dict[str, np.ndarray] | None = None,
):
    meta = meta or {}
    text = text or {}
    arrays = arrays or {}
    buf = bytearray()
    buf += MAGIC
    buf += struct.pack("<I", VERSION)
    buf += kind.encode().ljust(16, b"\x00")[:16]
    if len(config_hash) != 64:
        raise StorageError(f"config hash must be 64 hex chars, got {len(config_hash)}")
    buf += config_hash.encode()
    buf += struct.pack("<I", len(meta))
    for name, value in meta.items():
        enc = name.encode()
        buf += struct.pack("<H", len(enc)) + enc + struct.pack("<d", float(value))
    buf += struct.pack("<I", len(text))
    for name, value in text.items():
        enc, venc = name.encode(), value.encode()
        buf += struct.pack("<H", len(enc)) + enc
        buf += struct.pack("<H", len(venc)) + venc
    buf += struct.pack("<I", len(arrays))
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        if arr.dtype.kind == "f":
            arr = arr.astype("<f8", copy=False)
        elif arr.dtype.kind == "u":
            arr = arr.astype("<u8", copy=False)
        elif arr.dtype.kind in "ib":
            arr = arr.astype("<i8")
        else:
            raise StorageError(f"array {name!r} has unsupported dtype {arr.dtype}")
        enc = name.encode()
        buf += struct.pack("<H", len(enc)) + enc
        buf += struct.pack("<BB", _DTYPE_CODES[arr.dtype], arr.ndim)
        buf += struct.pack(f"<{arr.ndim}Q", *arr.shape)
        buf += arr.tobytes()
    Path(path).write_bytes(bytes(buf))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise TruncatedFileError(
                f"file ends at byte {len(self.data)}, needed {self.pos + n}"
            )
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self, n: int) -> str:
        data = self.take(n)
        try:
            return data.decode()
        except UnicodeDecodeError as exc:
            raise StorageError(f"text at byte {self.pos - n} is not UTF-8: {exc.reason}") from None

    def string(self) -> str:
        """A u16-length-prefixed UTF-8 string."""
        return self.text(*self.unpack("<H"))


def load_container(path, expect_kind: str | None = None, expect_hash: str | None = None) -> dict:
    raw = Path(path).read_bytes()
    r = _Reader(raw)
    if r.take(len(MAGIC)) != MAGIC:
        raise MagicError(f"{path} is not a stochflow container")
    (version,) = r.unpack("<I")
    if version != VERSION:
        raise VersionError(version, VERSION)
    kind = r.text(16).rstrip("\x00")
    if expect_kind is not None and kind != expect_kind:
        raise StorageError(f"container holds {kind!r}, expected {expect_kind!r}")
    config_hash = r.text(64)
    if expect_hash is not None and config_hash != expect_hash:
        raise HashMismatchError(config_hash, expect_hash)
    meta, text, arrays = {}, {}, {}
    (n_meta,) = r.unpack("<I")
    for _ in range(n_meta):
        name = r.string()
        (meta[name],) = r.unpack("<d")
    (n_text,) = r.unpack("<I")
    for _ in range(n_text):
        name = r.string()
        text[name] = r.string()
    (n_arrays,) = r.unpack("<I")
    for _ in range(n_arrays):
        name = r.string()
        code, ndim = r.unpack("<BB")
        shape = r.unpack(f"<{ndim}Q")
        if code not in _DTYPES:
            raise StorageError(f"array {name!r} has unknown dtype code {code}")
        dtype = _DTYPES[code]
        # in Python ints: a fixed-width product of a huge shape can wrap
        data = r.take(math.prod(shape) * dtype.itemsize)
        try:  # numpy refuses some shapes, e.g. past 64 dimensions
            arrays[name] = np.frombuffer(data, dtype=dtype).reshape(shape).copy()
        except ValueError as exc:
            raise StorageError(f"array {name!r} of shape {shape}: {exc}") from None
    if r.pos != len(raw):
        raise StorageError(f"{len(raw) - r.pos} trailing bytes after container payload")
    return {"kind": kind, "config_hash": config_hash, "meta": meta,
            "text": text, "arrays": arrays}


# -- trajectories -------------------------------------------------------------


def save_trajectory(path, traj: Trajectory, config_hash: str):
    """Binary container plus an NDJSON sidecar of per-time summaries."""
    save_container(
        path,
        kind="trajectory",
        config_hash=config_hash,
        meta={
            "dt": traj.dt,
            "store_every": traj.store_every,
            "seed": traj.seed,
            "nu": traj.nu,
            "blowup_time": -1.0 if traj.blowup_time is None else traj.blowup_time,
        },
        text={"scheme": traj.scheme, "seed": str(traj.seed)},
        arrays={
            "times": traj.times,
            "states": traj.states,
            "energy": traj.energy,
            "grad_energy": traj.grad_energy,
            "stoch_int": traj.stoch_int,
            "grad_int": traj.grad_int,
            "increments": traj.increments,
        },
    )
    lines = [
        json.dumps({"t": float(t), "energy": float(e), "grad_energy": float(g)})
        for t, e, g in zip(traj.times, traj.energy, traj.grad_energy)
    ]
    Path(str(path) + ".ndjson").write_text("\n".join(lines) + "\n")


def load_trajectory(path, expect_hash: str | None = None) -> tuple[Trajectory, str]:
    box = load_container(path, expect_kind="trajectory", expect_hash=expect_hash)
    meta, arrays = box["meta"], box["arrays"]
    try:
        blow = meta["blowup_time"]
        traj = Trajectory(
            times=arrays["times"],
            states=arrays["states"],
            energy=arrays["energy"],
            grad_energy=arrays["grad_energy"],
            stoch_int=arrays["stoch_int"],
            grad_int=arrays["grad_int"],
            increments=arrays["increments"],
            seed=int(box["text"].get("seed", meta["seed"])),
            dt=meta["dt"],
            store_every=int(meta["store_every"]),
            scheme=box["text"]["scheme"],
            nu=meta["nu"],
            blowup_time=None if blow < 0 else blow,
        )
    except (KeyError, ValueError, OverflowError) as exc:
        raise StorageError(f"incomplete trajectory container: {exc!r}") from None
    return traj, box["config_hash"]


# -- ensembles -----------------------------------------------------------------


def save_ensemble(path_prefix, ens, config_hash: str):
    """Summary container, probe container, and an NDJSON manifest."""
    prefix = Path(path_prefix)
    summary = prefix.with_suffix(".summary.bin")
    probes = prefix.with_suffix(".probes.bin")
    manifest = prefix.with_suffix(".manifest.ndjson")
    save_container(
        summary,
        kind="ensemble-summary",
        config_hash=config_hash,
        meta={
            "dt": ens.dt,
            "n_steps": ens.n_steps,
            "store_every": ens.store_every,
            "base_seed": ens.base_seed,
            "members": ens.n_members,
            "nu": ens.system.nu,
        },
        text={"scheme": ens.scheme, "base_seed": str(ens.base_seed)},
        arrays={
            "times": ens.times,
            "energy": ens.energy,
            "grad_energy": ens.grad_energy,
            "stoch_int": ens.stoch_int,
            "grad_int": ens.grad_int,
            "sup_energy": ens.sup_energy,
            "final_states": ens.final_states,
            "blowup_step": ens.blowup_step,
            "seeds": ens.seeds,
            "initial_states": ens.initial_states,
        },
    )
    save_container(
        probes,
        kind="ensemble-probes",
        config_hash=config_hash,
        arrays={"probe_times": ens.probe_times, "probe_states": ens.probe_states},
    )
    records = [json.dumps({
        "config_hash": config_hash,
        "members": ens.n_members,
        "base_seed": ens.base_seed,
        "summary": summary.name,
        "probes": probes.name,
    })]
    records += [
        json.dumps({"member": m, "seed": int(ens.seeds[m])})
        for m in range(ens.n_members)
    ]
    manifest.write_text("\n".join(records) + "\n")
    return {"summary": summary, "probes": probes, "manifest": manifest}
