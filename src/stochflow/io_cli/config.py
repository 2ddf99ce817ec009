"""Run configuration: strict parsing, canonical serialization, hashing.

Configs are JSON documents.  One table, `_SCHEMA`, gives each key of each
section a rule and a phrase for its value; one walk over it reports every
unknown key, wrong value and missing required key as `<where>.<key> must be
<what>, got <value>`.  Unknown keys are always fatal: a misspelt key would
change nothing in the run but its config hash.  An integer is
`type(v) is int`, so JSON `true` is not 1; a number is an integer or a
finite float, so `NaN` and `Infinity` are refused.  Rules across keys run
after a clean walk; mode labels are read by `basis.parse_label` and the
viscosity axis is `SweepPlan.validate`'s.  The canonical form is strict JSON
with defaults filled in and keys sorted, and the run hash is its SHA-256, so
every artifact names the configuration that produced it.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from ..basis import BasisError, BasisSpec, build_basis, parse_label
from ..noise import NoiseSpec, build_noise
from ..sde import SCHEMES, GalerkinSystem, _grid_index, build_system
from ..ensemble import constant_initial, gaussian_initial
from ..experiments import ExperimentError, SweepPlan


class ConfigError(ValueError):
    """One or more configuration validation failures."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {e}" for e in self.errors))


_KNOWN_DIAGNOSTICS = (
    "energy_residual",
    "gap_battery",
    "reynolds_defect",
    "moment_report",
    "weak_residual",
)

DEFAULTS = {
    "basis": {"dim": 2, "cutoff": 2},
    "viscosity": 0.1,
    "scheme": "euler_maruyama",
    "dt": 1e-3,
    "t_final": 1.0,
    "noise": {"additive": [], "transport": []},
    "initial": {"kind": "zero"},
    "ensemble": {"members": 1, "base_seed": 0, "store_every": 1, "probe_times": None},
    "diagnostics": ["energy_residual"],
    "output_dir": "out",
    "sweep": None,
}


@dataclass
class RunConfig:
    """Validated, canonicalized run configuration."""

    data: dict

    def canonical(self) -> str:
        return json.dumps(self.data, sort_keys=True, separators=(",", ":"))

    def hash(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()

    def __getitem__(self, key):
        return self.data[key]

    @property
    def n_steps(self) -> int:
        return _n_steps(self.data["dt"], self.data["t_final"], "")

    # -- model assembly ------------------------------------------------------

    def build_basis(self) -> BasisSpec:
        return build_basis(self.data["basis"]["dim"], self.data["basis"]["cutoff"])

    def build_noise(self, basis: BasisSpec) -> NoiseSpec:
        add, trans, assembly = _noise_terms(basis, self.data["noise"])
        return build_noise(basis, add, trans, assembly_basis=assembly)

    def build_system(self, basis: BasisSpec | None = None) -> GalerkinSystem:
        if basis is None:
            basis = self.build_basis()
        return build_system(basis, self.build_noise(basis), nu=self.data["viscosity"])

    def initial_sampler(self, basis: BasisSpec):
        init = self.data["initial"]
        if init["kind"] == "gaussian":
            return gaussian_initial(**{key: init[key] for key in ("scale", "max_ksq", "decay")
                                       if key in init})
        coeffs = init["coeffs"] if init["kind"] == "coeffs" else {}
        return constant_initial(_coeff_vector(basis, coeffs))

    def sweep_plan(self) -> SweepPlan:
        """The sweep's plan; unset keys take the run's dt, t_final and scheme, or SweepPlan's."""
        sweep = {key: self.data[key] for key in ("dt", "t_final", "scheme")} | self.data["sweep"]
        return SweepPlan(
            nus=tuple(sweep["nus"]), base_seed=self.data["ensemble"]["base_seed"],
            dt=sweep["dt"], n_steps=_n_steps(sweep["dt"], sweep["t_final"], "sweep."),
            scheme=sweep["scheme"],
            **{"n_members" if key == "members" else key: val for key, val in sweep.items()
               if key in ("members", "store_every", "moment_p")},
        )


def _n_steps(dt: float, t_final: float, where: str) -> int:
    """Steps of dt up to t_final, by the solver's one time-grid rule."""
    return _grid_index(t_final, dt, math.inf, ConfigError(
        [f"{where}t_final={t_final} is not a multiple of {where}dt={dt}"]))


def _coeff_vector(basis: BasisSpec, coeffs: dict) -> np.ndarray:
    vec = np.zeros(basis.n_modes)
    for label, val in coeffs.items():
        vec[basis.index_of(label)] = val
    return vec


def _assembly_cutoff(cutoff: int, noise_cfg: dict) -> int:
    """Cutoff of the basis the transport fields are assembled and labelled in."""
    return max([cutoff] + [e.get("cutoff", cutoff) for e in noise_cfg["transport"]])


def _noise_terms(basis: BasisSpec, noise_cfg: dict):
    cutoff = _assembly_cutoff(basis.cutoff, noise_cfg)
    assembly = basis if cutoff == basis.cutoff else build_basis(basis.dim, cutoff)
    return ([(e["mode"], _coeff_vector(basis, e["coeffs"])) for e in noise_cfg["additive"]],
            [(e["mode"], _coeff_vector(assembly, e["coeffs"])) for e in noise_cfg["transport"]],
            assembly)


# -- the key schema ------------------------------------------------------------


class _Rule(NamedTuple):
    """What one key's value must be; `schema` walks an object value or a list's objects."""

    admits: Callable[[object], bool]
    what: str
    required: bool = False
    schema: dict | None = None


def _number(v) -> bool:
    return type(v) is int or type(v) is float and math.isfinite(v)


_POSITIVE_INT = _Rule(lambda v: type(v) is int and v >= 1, "a positive integer")
_NUMBER = _Rule(_number, "a finite number")
_POSITIVE = _Rule(lambda v: _number(v) and v > 0, "a positive number")
_NONNEGATIVE = _Rule(lambda v: _number(v) and v >= 0, "a nonnegative number")
_SCHEME = _Rule(lambda v: v in SCHEMES, f"one of {SCHEMES}")
_COEFFS = _Rule(lambda v: isinstance(v, dict) and all(map(_number, v.values())),
                "an object of mode-label coefficients")
_NUMBERS = _Rule(lambda v: isinstance(v, list) and all(map(_number, v)), "a list of numbers")


def _object(schema: dict) -> _Rule:
    return _Rule(lambda v: isinstance(v, dict), "an object", schema=schema)


def _objects(schema: dict) -> _Rule:
    return _Rule(lambda v: isinstance(v, list) and all(isinstance(e, dict) for e in v),
                 "a list of objects", schema=schema)


_NOISE_ENTRY = {
    "mode": _Rule(lambda v: type(v) is int and v >= 0, "a nonnegative integer", required=True),
    "coeffs": _Rule(lambda v: _COEFFS.admits(v) and bool(v),
                    "a nonempty object of mode-label coefficients", required=True),
}
_INITIAL = {
    "kind": _Rule(lambda v: v in ("zero", "coeffs", "gaussian"), "zero|coeffs|gaussian"),
    "coeffs": _COEFFS, "scale": _NUMBER, "max_ksq": _NUMBER, "decay": _NUMBER,
}
_SCHEMA = {
    "basis": _object({"dim": _Rule(lambda v: type(v) is int and v in (2, 3), "2 or 3"),
                      "cutoff": _POSITIVE_INT}),
    "viscosity": _NONNEGATIVE,
    "scheme": _SCHEME,
    "dt": _POSITIVE,
    "t_final": _NONNEGATIVE,
    "noise": _object({"additive": _objects(_NOISE_ENTRY),
                      "transport": _objects(_NOISE_ENTRY | {"cutoff": _POSITIVE_INT})}),
    "initial": _object(_INITIAL),
    "ensemble": _object({
        "members": _POSITIVE_INT,
        "base_seed": _Rule(lambda v: type(v) is int and 0 <= v < 2 ** 64,
                           "a nonnegative integer below 2**64"),
        "store_every": _POSITIVE_INT,
        "probe_times": _Rule(lambda v: v is None or _NUMBERS.admits(v),
                             "null or a list of numbers"),
    }),
    "diagnostics": _Rule(lambda v: isinstance(v, list) and all(d in _KNOWN_DIAGNOSTICS for d in v),
                         f"a list of checks from {', '.join(_KNOWN_DIAGNOSTICS)}"),
    "output_dir": _Rule(lambda v: isinstance(v, str), "a string"),
    "sweep": _Rule(lambda v: v is None or isinstance(v, dict), "null or an object", schema={
        "nus": _NUMBERS._replace(required=True),
        "members": _POSITIVE_INT,
        "store_every": _POSITIVE_INT,
        "moment_p": _Rule(lambda v: _number(v) and v >= 2, "a number >= 2"),
        "dt": _POSITIVE,
        "t_final": _NONNEGATIVE,
        "scheme": _SCHEME,
    }),
}


def _walk(obj: dict, schema: dict, where: str, errors: list):
    """Append one error per unknown key, missing required key and refused value of obj."""
    for key in sorted(obj.keys() - schema.keys()):
        errors.append(f"{where}{key} must be absent (unknown key), got {json.dumps(obj[key])}")
    for key, rule in schema.items():
        if key not in obj:
            if rule.required:
                errors.append(f"{where}{key} must be {rule.what}, got nothing")
        elif not rule.admits(value := obj[key]):
            errors.append(f"{where}{key} must be {rule.what}, got {json.dumps(value)}")
        elif isinstance(value, list) and rule.schema:
            for pos, entry in enumerate(value):
                _walk(entry, rule.schema, f"{where}{key}[{pos}].", errors)
        elif value is not None and rule.schema:
            _walk(value, rule.schema, f"{where}{key}.", errors)


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a JSON configuration document.

    Mode labels are checked by the basis's label grammar (`parse_label`)
    against the cutoff they are read in, so parsing builds no basis, noise
    or sampler and its cost does not depend on the cutoff.  Raises
    ConfigError carrying the complete list of validation failures.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"not valid JSON: {exc}"]) from None
    if not isinstance(raw, dict):
        raise ConfigError(["top level must be an object"])
    cfg = json.loads(json.dumps(DEFAULTS))
    for key, val in raw.items():
        cfg[key] = cfg[key] | val if isinstance(val, dict) and isinstance(cfg.get(key), dict) else val
    errors: list[str] = []
    _walk(cfg, _SCHEMA, "", errors)
    if errors:
        raise ConfigError(errors)

    # rules across keys, on a document whose every key passed; labels are
    # read by the basis's one grammar and the grids by the solver's one rule
    noise, init, every = cfg["noise"], cfg["initial"], cfg["ensemble"]["store_every"]
    additive, transport = ({e["mode"] for e in noise[name]} for name in ("additive", "transport"))
    for mode in sorted(additive & transport):
        errors.append(f"noise: brownian mode {mode} is used by both sigma1 and sigma2; "
                      "the additive and transport supports must be disjoint")
    needs = {"coeffs": "coeffs", "gaussian": "scale"}.get(init["kind"])
    if needs and needs not in init:
        errors.append(f"initial.{needs} must be {_INITIAL[needs].what} for kind "
                      f"{json.dumps(init['kind'])}, got nothing")
    dim, cutoff = cfg["basis"]["dim"], cfg["basis"]["cutoff"]
    labelled = [("initial.coeffs", init.get("coeffs", {}) if init["kind"] == "coeffs" else {},
                 cutoff)]
    labelled += [(f"noise.{name}[{pos}].coeffs", e["coeffs"], bound)
                 for name, bound in (("additive", cutoff),
                                     ("transport", _assembly_cutoff(cutoff, noise)))
                 for pos, e in enumerate(noise[name])]
    for where, coeffs, bound in labelled:
        for label in coeffs:
            try:
                parse_label(label, dim, bound)
            except BasisError as exc:
                errors.append(f"{where}: {exc}")
    run = RunConfig(data=cfg)
    try:
        if run.n_steps % every:
            errors.append(f"ensemble.store_every={every} does not divide the "
                          f"{run.n_steps} steps")
        if cfg["sweep"] is not None:
            (plan := run.sweep_plan()).validate()
            if plan.n_steps % plan.store_every:
                errors.append(f"sweep.store_every={plan.store_every} does not divide the "
                              f"{plan.n_steps} steps")
        for t in cfg["ensemble"]["probe_times"] or ():
            _grid_index(t, cfg["dt"] * every, run.n_steps // every,
                        ConfigError([f"ensemble.probe_times: {t} is not a saved time"]))
    except ConfigError as exc:
        errors.extend(exc.errors)
    except ExperimentError as exc:
        errors.append(f"sweep.nus: {exc}")

    if errors:
        raise ConfigError(errors)
    return run


def emit_config(config: RunConfig) -> str:
    """Canonical serialization; parse(emit(c)) has the same hash as c."""
    return json.dumps(config.data, sort_keys=True, indent=2)
