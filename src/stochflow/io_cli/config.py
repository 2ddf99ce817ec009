"""Run configuration: strict parsing, canonical serialization, hashing.

Configs are JSON documents.  Parsing is strict by default (unknown keys are
fatal) because the meaning of every experiment depends on the exact noise
structure; validation collects all errors instead of stopping at the first.
The canonical form has every default filled in and keys sorted, and the run
hash is the SHA-256 of that canonical text, so parse(emit(config)) is a
fixed point and every artifact can name the configuration that produced it.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from ..basis import BasisSpec, build_basis
from ..noise import NoiseSpec, build_noise
from ..sde import SCHEMES, GalerkinSystem, _grid_index, build_system
from ..ensemble import constant_initial, gaussian_initial
from ..experiments import SweepPlan


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
        if init["kind"] == "zero":
            return constant_initial(np.zeros(basis.n_modes))
        if init["kind"] == "coeffs":
            a0 = np.zeros(basis.n_modes)
            for label, val in init["coeffs"].items():
                a0[basis.index_of(label)] = val
            return constant_initial(a0)
        return gaussian_initial(init["scale"], init.get("max_ksq", 2.0),
                                init.get("decay", 1.0))

    def sweep_plan(self) -> SweepPlan:
        """The sweep's plan; unset keys take the run's dt, t_final and scheme, or SweepPlan's."""
        sweep = {key: self.data[key] for key in ("dt", "t_final", "scheme")} | self.data["sweep"]
        return SweepPlan(
            nus=tuple(sweep["nus"]), base_seed=self.data["ensemble"]["base_seed"],
            dt=sweep["dt"], n_steps=_n_steps(sweep["dt"], sweep["t_final"], "sweep."),
            scheme=sweep["scheme"],
            **{field: sweep[key] for key, (field, _, _) in _SWEEP_KEYS.items()
               if field and key in sweep},
        )


def _n_steps(dt: float, t_final: float, where: str) -> int:
    """Steps of dt up to t_final, by the solver's one time-grid rule."""
    return _grid_index(t_final, dt, math.inf, ConfigError(
        [f"{where}t_final={t_final} is not a multiple of {where}dt={dt}"]))


# optional sweep keys: the SweepPlan field each sets, if any, and the values it admits
_SWEEP_KEYS = {
    "members": ("n_members", lambda v: isinstance(v, int) and v >= 1, "a positive integer"),
    "store_every": ("store_every", lambda v: isinstance(v, int) and v >= 1, "a positive integer"),
    "coupled_paths": ("coupled_paths", lambda v: isinstance(v, bool), "true or false"),
    "moment_p": ("moment_p", lambda v: isinstance(v, (int, float)) and v >= 2, "a number >= 2"),
    "dt": (None, lambda v: isinstance(v, (int, float)) and v > 0, "positive"),
    "t_final": (None, lambda v: isinstance(v, (int, float)) and v >= 0, "nonnegative"),
    "scheme": (None, lambda v: v in SCHEMES, f"one of {SCHEMES}"),
}


def _noise_terms(basis: BasisSpec, noise_cfg: dict):
    additive = []
    for entry in noise_cfg["additive"]:
        vec = np.zeros(basis.n_modes)
        for label, val in entry["coeffs"].items():
            vec[basis.index_of(label)] = val
        additive.append((entry["mode"], vec))
    transport = []
    assembly = basis
    cutoffs = [e.get("cutoff", basis.cutoff) for e in noise_cfg["transport"]]
    if cutoffs and max(cutoffs) > basis.cutoff:
        assembly = build_basis(basis.dim, max(cutoffs))
    for entry in noise_cfg["transport"]:
        vec = np.zeros(assembly.n_modes)
        for label, val in entry["coeffs"].items():
            vec[assembly.index_of(label)] = val
        transport.append((entry["mode"], vec))
    return additive, transport, assembly


def _check_keys(obj: dict, allowed: set, where: str, errors: list, strict: bool):
    unknown = set(obj) - allowed
    if unknown and strict:
        for key in sorted(unknown):
            errors.append(f"{where}: unknown key {key!r}")


def _merge_defaults(raw: dict) -> dict:
    out = json.loads(json.dumps(DEFAULTS))
    for key, val in raw.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key].update(val)
        else:
            out[key] = val
    return out


def parse_config(text: str, strict: bool = True) -> RunConfig:
    """Parse and fully validate a JSON configuration document.

    Raises ConfigError carrying the complete list of validation failures.
    """
    errors: list[str] = []
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"not valid JSON: {exc}"]) from None
    if not isinstance(raw, dict):
        raise ConfigError(["top level must be an object"])

    _check_keys(raw, set(DEFAULTS), "top level", errors, strict)
    cfg = _merge_defaults(raw)
    for section, expected in (("basis", dict), ("noise", dict), ("initial", dict),
                              ("ensemble", dict), ("diagnostics", list)):
        if not isinstance(cfg[section], expected):
            errors.append(f"{section} must be {'an object' if expected is dict else 'a list'}, "
                          f"got {cfg[section]!r}")
            # validate the rest against the default section: one error per section
            cfg[section] = json.loads(json.dumps(DEFAULTS[section]))

    basis_cfg = cfg["basis"]
    _check_keys(basis_cfg, {"dim", "cutoff"}, "basis", errors, strict)
    if basis_cfg.get("dim") not in (2, 3):
        errors.append(f"basis.dim must be 2 or 3, got {basis_cfg.get('dim')}")
    if not isinstance(basis_cfg.get("cutoff"), int) or basis_cfg.get("cutoff", 0) < 1:
        errors.append(f"basis.cutoff must be a positive integer, got {basis_cfg.get('cutoff')}")

    if not isinstance(cfg["viscosity"], (int, float)) or cfg["viscosity"] < 0:
        errors.append(f"viscosity must be a nonnegative number, got {cfg['viscosity']}")
    if cfg["scheme"] not in SCHEMES:
        errors.append(f"scheme must be one of {SCHEMES}, got {cfg['scheme']!r}")
    if not isinstance(cfg["dt"], (int, float)) or cfg["dt"] <= 0:
        errors.append(f"dt must be positive, got {cfg['dt']}")
    if not isinstance(cfg["t_final"], (int, float)) or cfg["t_final"] < 0:
        errors.append(f"t_final must be nonnegative, got {cfg['t_final']}")

    noise_cfg = cfg["noise"]
    _check_keys(noise_cfg, {"additive", "transport"}, "noise", errors, strict)
    additive_modes: set[int] = set()
    transport_modes: set[int] = set()
    for name, modes_seen in (("additive", additive_modes), ("transport", transport_modes)):
        entries = noise_cfg.get(name, [])
        if not isinstance(entries, list):
            errors.append(f"noise.{name} must be a list")
            continue
        for pos, entry in enumerate(entries):
            where = f"noise.{name}[{pos}]"
            if not isinstance(entry, dict):
                errors.append(f"{where}: must be an object")
                continue
            allowed = {"mode", "coeffs"} | ({"cutoff"} if name == "transport" else set())
            _check_keys(entry, allowed, where, errors, strict)
            mode = entry.get("mode")
            if not isinstance(mode, int) or mode < 0:
                errors.append(f"{where}: mode must be a nonnegative integer")
            else:
                modes_seen.add(mode)
            if not isinstance(entry.get("coeffs"), dict) or not entry.get("coeffs"):
                errors.append(f"{where}: coeffs must be a nonempty object")
    overlap = additive_modes & transport_modes
    for mode in sorted(overlap):
        errors.append(
            f"noise: brownian mode {mode} is used by both sigma1 and sigma2; "
            "the additive and transport supports must be disjoint"
        )

    init = cfg["initial"]
    _check_keys(init, {"kind", "coeffs", "scale", "max_ksq", "decay"}, "initial",
                errors, strict)
    kind = init.get("kind")
    if kind not in ("zero", "coeffs", "gaussian"):
        errors.append(f"initial.kind must be zero|coeffs|gaussian, got {kind!r}")
    elif kind == "coeffs" and not (
            isinstance(init.get("coeffs"), dict)
            and all(isinstance(v, (int, float)) for v in init["coeffs"].values())):
        errors.append("initial.coeffs must be an object of mode-label coefficients")
    elif kind == "gaussian" and not all(isinstance(init.get(key, 1.0), (int, float))
                                        for key in ("max_ksq", "decay")):
        errors.append("initial.max_ksq and initial.decay must be numbers")
    elif kind == "gaussian" and not isinstance(init.get("scale"), (int, float)):
        errors.append("initial.scale must be a number")

    ens = cfg["ensemble"]
    _check_keys(ens, {"members", "base_seed", "store_every", "probe_times"},
                "ensemble", errors, strict)
    if not isinstance(ens.get("members"), int) or ens["members"] < 1:
        errors.append(f"ensemble.members must be a positive integer, got {ens.get('members')}")
    if not isinstance(ens.get("base_seed"), int) or not 0 <= ens["base_seed"] < 2 ** 64:
        errors.append("ensemble.base_seed must be a nonnegative integer below 2**64")
    if not isinstance(ens.get("store_every"), int) or ens["store_every"] < 1:
        errors.append("ensemble.store_every must be a positive integer")
    probes = ens.get("probe_times")
    if probes is not None and not (isinstance(probes, list)
                                   and all(isinstance(t, (int, float)) for t in probes)):
        errors.append(f"ensemble.probe_times must be null or a list of numbers, got {probes!r}")

    for diag in cfg["diagnostics"]:
        if diag not in _KNOWN_DIAGNOSTICS:
            errors.append(f"diagnostics: unknown check {diag!r} "
                          f"(known: {', '.join(_KNOWN_DIAGNOSTICS)})")

    sweep = cfg["sweep"]
    if sweep is not None and not isinstance(sweep, dict):
        errors.append("sweep must be an object or null")
    elif sweep is not None:
        _check_keys(sweep, {"nus", *_SWEEP_KEYS}, "sweep", errors, strict)
        nus = sweep.get("nus")
        if not (isinstance(nus, list) and nus
                and all(isinstance(nu, (int, float)) and nu > 0 for nu in nus)):
            errors.append(f"sweep.nus must be a nonempty list of positive numbers, got {nus!r}")
        elif any(a <= b for a, b in zip(nus, nus[1:])):
            errors.append("sweep.nus must be strictly decreasing")
        for key, (_, admits, what) in _SWEEP_KEYS.items():
            if key in sweep and not admits(sweep[key]):
                errors.append(f"sweep.{key} must be {what}, got {sweep[key]!r}")

    # basis-dependent and time-grid checks only make sense on otherwise valid
    # configs; the grids are read by the solver's one rule
    if not errors:
        try:
            basis = build_basis(basis_cfg["dim"], basis_cfg["cutoff"])
            _noise_terms(basis, noise_cfg)
            if kind == "coeffs":
                for label in init.get("coeffs", {}):
                    basis.index_of(label)
            run, every = RunConfig(data=cfg), ens["store_every"]
            if run.n_steps % every:
                errors.append(f"ensemble.store_every={every} does not divide the "
                              f"{run.n_steps} steps")
            if sweep is not None and (plan := run.sweep_plan()).n_steps % plan.store_every:
                errors.append(f"sweep.store_every={plan.store_every} does not divide the "
                              f"{plan.n_steps} steps")
            for t in probes or ():
                _grid_index(t, cfg["dt"] * every, run.n_steps // every,
                            ConfigError([f"ensemble.probe_times: {t} is not a saved time"]))
        except ConfigError as exc:
            errors.extend(exc.errors)
        except Exception as exc:  # label/cutoff errors surface here
            errors.append(str(exc))

    if errors:
        raise ConfigError(errors)
    return RunConfig(data=cfg)


def emit_config(config: RunConfig) -> str:
    """Canonical serialization; parse(emit(c)) has the same hash as c."""
    return json.dumps(config.data, sort_keys=True, indent=2)
