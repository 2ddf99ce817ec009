import io
import json
import math
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from stochflow import basis as basis_mod
from stochflow.ensemble import run_ensemble
from stochflow.experiments import SweepPlan
from stochflow.io_cli.cli import main
from stochflow.io_cli import config as config_mod
from stochflow.io_cli import storage
from stochflow.io_cli.config import ConfigError, emit_config, parse_config
from stochflow.io_cli.storage import (
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
from stochflow.sde import BrownianPath, integrate

import oracles


MINIMAL = {
    "basis": {"dim": 2, "cutoff": 2},
    "viscosity": 0.1,
    "dt": 0.001,
    "t_final": 0.01,
}


# -- config -----------------------------------------------------------------


def test_minimal_config_defaults_applied():
    cfg = parse_config(json.dumps(MINIMAL))
    assert cfg["scheme"] == "euler_maruyama"
    assert cfg["ensemble"]["members"] == 1
    assert cfg.n_steps == 10


def test_unknown_key_rejected_strict():
    doc = dict(MINIMAL, typo_key=1)
    with pytest.raises(ConfigError, match="typo_key"):
        parse_config(json.dumps(doc))
    # sweeps always run every nu on the same paths; the old switch is unknown
    doc = dict(MINIMAL, sweep={"nus": [0.1], "store_every": 1, "coupled_paths": False})
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert err.value.errors == ["sweep.coupled_paths must be absent (unknown key), got false"]


def test_all_errors_collected():
    doc = {"basis": {"dim": 7, "cutoff": 0}, "viscosity": -1, "scheme": "rk9"}
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    msgs = "\n".join(err.value.errors)
    assert "dim" in msgs and "cutoff" in msgs and "viscosity" in msgs and "scheme" in msgs
    assert len(err.value.errors) >= 4


def test_overlapping_noise_supports_named():
    doc = dict(MINIMAL)
    doc["noise"] = {
        "additive": [{"mode": 3, "coeffs": {"1,0:cos": 0.5}}],
        "transport": [{"mode": 3, "coeffs": {"0,1:cos": 0.5}}],
    }
    with pytest.raises(ConfigError, match="mode 3"):
        parse_config(json.dumps(doc))


def test_canonical_round_trip_hash():
    cfg = parse_config(json.dumps(MINIMAL))
    again = parse_config(emit_config(cfg))
    assert again.hash() == cfg.hash()
    assert emit_config(again) == emit_config(cfg)


def test_config_builds_system():
    doc = dict(MINIMAL)
    doc["noise"] = {
        "additive": [{"mode": 0, "coeffs": {"0,1:cos": 0.5}}],
        "transport": [{"mode": 1, "coeffs": {"1,0:cos": 0.4}, "cutoff": 3}],
    }
    cfg = parse_config(json.dumps(doc))
    system = cfg.build_system()
    assert system.n_brownian == 2
    assert system.noise.transport.modes == (1,)


def test_canonical_hash_pinned():
    # the canonical text, and so the hash every artifact carries, of valid
    # configs with and without a sweep section
    sweep = dict(MINIMAL, sweep={"nus": [0.1, 0.05], "members": 4, "store_every": 5})
    assert parse_config(json.dumps(MINIMAL)).hash() == \
        "a462eaee43b2fa17e9b5fd3d60d08ff0933024a7fe1696ea22bf4616b2bd3d9d"
    assert parse_config(json.dumps(sweep)).hash() == \
        "222079a6e0c260be75315f3c9f4645c9a24999736584167309272d33decec6bf"


# configs that parse at face value but cannot run: each is one error
UNRUNNABLE = {
    "store_every does not divide the steps":
        dict(MINIMAL, t_final=0.025, ensemble={"store_every": 10}),
    "probe off the saved grid":
        dict(MINIMAL, t_final=0.02, ensemble={"store_every": 10, "probe_times": [0.005]}),
    "probe past the end":
        dict(MINIMAL, ensemble={"probe_times": [0.0, 0.011]}),
    "negative probe":
        dict(MINIMAL, ensemble={"probe_times": [-0.001]}),
    "probe not a number":
        dict(MINIMAL, ensemble={"probe_times": ["0.01"]}),
    "sweep t_final off its dt":
        dict(MINIMAL, sweep={"nus": [0.1], "dt": 0.003, "t_final": 0.01}),
    "sweep store_every does not divide its steps":
        dict(MINIMAL, sweep={"nus": [0.1], "store_every": 3}),
    "sweep scheme":
        dict(MINIMAL, sweep={"nus": [0.1], "scheme": "rk4", "store_every": 1}),
    "sweep members":
        dict(MINIMAL, sweep={"nus": [0.1], "members": 0, "store_every": 1}),
    "sweep dt":
        dict(MINIMAL, sweep={"nus": [0.1], "dt": -1, "store_every": 1}),
    "sweep nus positive":
        dict(MINIMAL, sweep={"nus": [0.1, -0.2], "store_every": 1}),
    "sweep moment exponent":
        dict(MINIMAL, sweep={"nus": [0.1], "moment_p": 1.0, "store_every": 1}),
    "base seed beyond 64 bits":
        dict(MINIMAL, ensemble={"base_seed": 2 ** 64}),
    "sweep nus empty":
        dict(MINIMAL, sweep={"nus": [], "store_every": 1}),
    "sweep nus increasing":
        dict(MINIMAL, sweep={"nus": [0.05, 0.1], "store_every": 1}),
    "sweep nus not finite":
        dict(MINIMAL, sweep={"nus": [float("inf"), 0.1], "store_every": 1}),
    "initial scale missing":
        dict(MINIMAL, initial={"kind": "gaussian"}),
    "noise coefficient not finite":
        dict(MINIMAL, noise={"additive": [{"mode": 0, "coeffs": {"0,1:cos": float("nan")}}]}),
    "probe not finite":
        dict(MINIMAL, ensemble={"probe_times": [float("-inf")]}),
    "unknown key set to NaN":
        dict(MINIMAL, typo_key=float("nan")),
    # integers past the float range name no grid point
    "huge t_final":
        dict(MINIMAL, t_final=10 ** 400),
    "huge dt and t_final":
        dict(MINIMAL, dt=10 ** 399, t_final=10 ** 400),
    "huge probe":
        dict(MINIMAL, ensemble={"probe_times": [10 ** 400]}),
}


def test_unrunnable_configs_rejected():
    for case, doc in UNRUNNABLE.items():
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(doc))
        assert len(err.value.errors) == 1, (case, err.value.errors)


def test_unrunnable_configs_exit_1(tmp_path, capsys):
    # each used to die with a traceback (ensemble) or to run a shorter sweep
    for case, cmd in (("store_every does not divide the steps", "ensemble"),
                      ("probe off the saved grid", "ensemble"),
                      ("sweep t_final off its dt", "sweep")):
        p = tmp_path / "config.json"
        p.write_text(json.dumps(dict(UNRUNNABLE[case], output_dir=str(tmp_path / "out"))))
        assert main(["--config", str(p), cmd]) == 1, case
        records = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert records and all("config_error" in r for r in records), (case, records)


# sections and values of the wrong type: each used to die with a traceback
WRONG_TYPE = {
    "basis": {"basis": []},
    "noise": {"noise": 3},
    "initial": {"initial": 3},
    "ensemble": {"ensemble": 5},
    "diagnostics": {"diagnostics": 5},
    "initial.max_ksq": {"initial": {"kind": "gaussian", "scale": 1.0, "max_ksq": "2"}},
    "initial.coeffs": {"initial": {"kind": "coeffs", "coeffs": {"0,1:cos": "0.5"}}},
    # JSON true is not the integer 1, and NaN and Infinity are not numbers
    "basis.cutoff": {"basis": {"dim": 2, "cutoff": True}},
    "ensemble.members": {"ensemble": {"members": True}},
    "ensemble.base_seed": {"ensemble": {"base_seed": True}},
    "ensemble.store_every": {"ensemble": {"store_every": True}},
    "dt": {"dt": True, "t_final": 1.0},
    "viscosity": {"viscosity": True},
    "sweep.members": {"sweep": {"nus": [0.1], "members": True}},
    "noise.additive[0].mode":
        {"noise": {"additive": [{"mode": True, "coeffs": {"0,1:cos": 0.4}}]}},
    "noise.transport[0].cutoff":
        {"noise": {"transport": [{"mode": 1, "coeffs": {"1,0:cos": 0.4}, "cutoff": True}]}},
    "initial.scale": {"initial": {"kind": "gaussian", "scale": True}},
    "viscosity must be a nonnegative number, got NaN": {"viscosity": float("nan")},
    "viscosity must be a nonnegative number, got Infinity": {"viscosity": float("inf")},
    "sweep.nus": {"sweep": {"nus": [True]}},
}


def test_wrong_type_sections_rejected(tmp_path, capsys):
    for case, override in WRONG_TYPE.items():
        doc = dict(MINIMAL, output_dir=str(tmp_path / "out"), **override)
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(doc))
        assert len(err.value.errors) == 1 and case in err.value.errors[0], err.value.errors
        p = tmp_path / "config.json"
        p.write_text(json.dumps(doc))
        assert main(["--config", str(p), "simulate"]) == 1, case
        records = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert len(records) == 1 and "config_error" in records[0], (case, records)


@settings(max_examples=300)
@example(path=("initial", "scale"), value=math.nan)
@example(path=("viscosity",), value=math.inf)
@example(path=("typo_key",), value=[-math.inf])
@given(path=st.sampled_from([
           ("viscosity",), ("dt",), ("t_final",), ("scheme",), ("output_dir",), ("sweep",),
           ("basis", "dim"), ("basis", "cutoff"), ("initial", "scale"),
           ("initial", "max_ksq"), ("ensemble", "members"), ("ensemble", "base_seed"),
           ("ensemble", "store_every"), ("ensemble", "probe_times"), ("sweep", "nus"),
           ("sweep", "moment_p"), ("typo_key",)]),
       value=st.recursive(
           st.sampled_from([None, True, False, math.nan, math.inf, -math.inf, "heun"])
           | st.integers(-3, 5) | st.floats(),
           lambda inner: st.lists(inner, max_size=3)
           | st.dictionaries(st.text(max_size=3), inner, max_size=3),
           max_leaves=6))
def test_accepted_canonical_text_is_strict_json(path, value):
    # whatever a document sets, what parses has a canonical text without NaN
    # or Infinity, so every artifact's config hash names strict JSON; integers
    # stay small, as a large basis.cutoff builds a large basis
    doc = dict(MINIMAL, initial={"kind": "gaussian", "scale": 1.0},
               sweep={"nus": [0.1], "store_every": 1})
    doc = json.loads(json.dumps(doc))
    *head, key = path
    section = doc
    for name in head:
        section = section.setdefault(name, {})
    section[key] = value
    try:
        cfg = parse_config(json.dumps(doc))
    except ConfigError:
        return
    again = json.loads(cfg.canonical(), parse_constant=_refuse_constant)
    assert parse_config(json.dumps(again)).hash() == cfg.hash()


def test_sweep_plan_defaults():
    doc = dict(MINIMAL, scheme="heun", ensemble={"base_seed": 9},
               sweep={"nus": [0.1, 0.05], "store_every": 5})
    plan = parse_config(json.dumps(doc)).sweep_plan()
    assert plan == SweepPlan(nus=(0.1, 0.05), n_members=64, base_seed=9, dt=0.001,
                             n_steps=10, scheme="heun", store_every=5, moment_p=4.0)
    doc["sweep"] = {"nus": [0.2], "members": 3, "dt": 0.002, "t_final": 0.02,
                    "store_every": 2, "scheme": "euler_maruyama", "moment_p": 6.0}
    plan = parse_config(json.dumps(doc)).sweep_plan()
    assert plan == SweepPlan(nus=(0.2,), n_members=3, base_seed=9, dt=0.002, n_steps=10,
                             scheme="euler_maruyama", store_every=2, moment_p=6.0)


LABELLED = {
    "2d": dict(MINIMAL, initial={"kind": "coeffs", "coeffs": {"1,0:cos": 1.0, "2,-1:sin": 0.5}},
               noise={"additive": [{"mode": 0, "coeffs": {"0,1:cos": 0.4}}],
                      "transport": [{"mode": 1, "coeffs": {"3,0:cos": 0.2}},
                                    {"mode": 2, "coeffs": {"1,1:sin": 0.1}, "cutoff": 3}]}),
    "3d": dict(MINIMAL, basis={"dim": 3, "cutoff": 1},
               initial={"kind": "coeffs", "coeffs": {"0,1,0:p0:cos": 0.4}},
               noise={"additive": [{"mode": 0, "coeffs": {"0,0,1:p0:cos": 0.3}}],
                      "transport": [{"mode": 1, "coeffs": {"1,1,0:p1:sin": 0.2}}]}),
}


@pytest.fixture
def no_basis(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("parse_config built a basis")

    monkeypatch.setattr(basis_mod, "build_basis", refuse)
    monkeypatch.setattr(config_mod, "build_basis", refuse)


def test_labels_parse_without_a_basis(no_basis):
    # transport labels are read at the largest transport cutoff, so "3,0:cos"
    # of entry 0 is a mode of the cutoff-3 assembly basis
    assert parse_config(json.dumps(LABELLED["2d"])).hash() == \
        "42068215b78c0869861dcbc8a1242f3cdf23d98e3035876d4b5f86e4e2b7a167"
    assert parse_config(json.dumps(LABELLED["3d"])).hash() == \
        "5f204e9dcc659d160bf09b9bbb05a4f71457a12c68915c501028ffc5454ece58"
    # the cost of parsing does not grow with the cutoff
    parse_config(json.dumps(dict(MINIMAL, basis={"dim": 3, "cutoff": 10 ** 9})))
    # gaussian initial data reads no labels
    parse_config(json.dumps(dict(MINIMAL, initial={"kind": "gaussian", "scale": 1.0,
                                                   "coeffs": {"9,9:cos": 1.0}})))


def test_bad_mode_label_reported(no_basis):
    doc = dict(MINIMAL)
    doc["initial"] = {"kind": "coeffs", "coeffs": {"9,9:cos": 1.0}}
    with pytest.raises(ConfigError, match="9,9"):
        parse_config(json.dumps(doc))
    # each bad label is one error that names its place
    doc = json.loads(json.dumps(LABELLED["2d"]))
    doc["initial"]["coeffs"]["+1,0:cos"] = 1.0
    doc["noise"]["additive"][0]["coeffs"]["3,0:cos"] = 1.0      # beyond basis.cutoff
    doc["noise"]["transport"][1]["coeffs"]["4,0:cos"] = 1.0     # beyond the assembly's
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert err.value.errors == [
        "initial.coeffs: unknown mode label '+1,0:cos'",
        "noise.additive[0].coeffs: unknown mode label '3,0:cos'",
        "noise.transport[1].coeffs: unknown mode label '4,0:cos'",
    ]
    del doc["noise"]["transport"][1]
    doc["initial"]["coeffs"] = {"1,0:cos": 1.0}
    doc["noise"]["additive"][0]["coeffs"] = {"0,1:cos": 0.4}
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert err.value.errors == ["noise.transport[0].coeffs: unknown mode label '3,0:cos'"]
    doc = json.loads(json.dumps(LABELLED["3d"]))
    doc["noise"]["transport"][0]["coeffs"]["1,1,0:cos"] = 1.0   # a 2-D-style label
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert err.value.errors == ["noise.transport[0].coeffs: unknown mode label '1,1,0:cos'"]


# -- storage ----------------------------------------------------------------


def _traj(additive_system, n_steps=50):
    path = BrownianPath.generate(3, 1e-3, n_steps, additive_system.n_brownian)
    a0 = np.zeros(additive_system.n_modes)
    a0[0] = 0.5
    return integrate(additive_system, a0, path)


def test_trajectory_round_trip_bitwise(tmp_path, additive_system):
    # one trajectory from `integrate`, one regenerated from an ensemble; a
    # parameter id would rename the test, so the two sources are looped over
    ens = run_ensemble(additive_system, 0.3 * np.ones(additive_system.n_modes), 3,
                       base_seed=3, dt=1e-3, n_steps=50)
    for source, traj in (("integrate", _traj(additive_system)),
                         ("member", ens.member_trajectory(2))):
        f = tmp_path / f"{source}.bin"
        save_trajectory(f, traj, "ab" * 32)
        loaded, h = load_trajectory(f)
        assert h == "ab" * 32
        assert vars(loaded).keys() == vars(traj).keys()
        for key, value in vars(traj).items():
            assert oracles.bit_equal(value, getattr(loaded, key)), (source, key)
    # the container is the only file a trajectory save writes
    assert sorted(p.name for p in tmp_path.iterdir()) == ["integrate.bin", "member.bin"]


def test_seed_round_trip_exact(tmp_path, additive_system):
    # seeds past 2**53 name other Brownian paths once rounded to a double
    traj = _traj(additive_system, n_steps=5)
    for seed in (2 ** 60 + 1, 2 ** 64 - 1):
        traj.seed = seed
        save_trajectory(tmp_path / "t.bin", traj, "ab" * 32)
        assert load_trajectory(tmp_path / "t.bin")[0].seed == seed
        ens = run_ensemble(additive_system, np.zeros(additive_system.n_modes), 2,
                           base_seed=seed, dt=1e-3, n_steps=2)
        summary = save_ensemble(tmp_path / "e", ens, "ab" * 32)["summary"]
        box = load_container(summary)
        assert oracles.bit_equal(box["meta"]["base_seed"], seed)
        # member seeds past 2**63 are stored unsigned, not wrapped negative
        assert box["arrays"]["seeds"].dtype == np.uint64
        assert box["arrays"]["seeds"].tolist() == [seed, seed ^ 1]
        assert box["arrays"]["blowup_step"].dtype == np.int64


def test_dotted_prefixes_name_distinct_files(tmp_path, additive_system):
    # `with_suffix` once mapped run.nu0.05 and run.nu0.1 both onto run.nu0.*
    written = {}
    for prefix, seed in (("run.nu0.05", 5), ("run.nu0.1", 7)):
        ens = run_ensemble(additive_system, np.zeros(additive_system.n_modes), 2,
                           base_seed=seed, dt=1e-3, n_steps=2)
        written[seed] = (ens, save_ensemble(tmp_path / prefix, ens, "ab" * 32))
    paths = [p for _, files in written.values() for p in files.values()]
    assert len(set(paths)) == 4 and all(p.parent == tmp_path for p in paths)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in paths)
    for seed, (ens, files) in written.items():
        assert files["summary"].name.startswith(("run.nu0.05.", "run.nu0.1."))
        summary = load_container(files["summary"], expect_kind="ensemble-summary")
        assert summary["meta"]["base_seed"] == seed
        assert oracles.bit_equal(summary["arrays"]["final_states"], ens.final_states)
        probes = load_container(files["probes"], expect_kind="ensemble-probes")
        assert oracles.bit_equal(probes["arrays"]["probe_states"], ens.probe_states)
        assert (probes["config_hash"], probes["meta"]) == (summary["config_hash"], summary["meta"])


def test_hash_mismatch_distinct_error(tmp_path, additive_system):
    f = tmp_path / "t.bin"
    save_trajectory(f, _traj(additive_system), "ab" * 32)
    with pytest.raises(HashMismatchError) as err:
        load_trajectory(f, expect_hash="cd" * 32)
    assert err.value.found == "ab" * 32
    assert err.value.expected == "cd" * 32


def test_truncation_distinct_error(tmp_path, additive_system):
    f = tmp_path / "t.bin"
    save_trajectory(f, _traj(additive_system), "ab" * 32)
    data = f.read_bytes()
    for keep in (len(data) - 16, len(data) // 2):  # into the end record, and mid-payload
        f.write_bytes(data[:keep])
        with pytest.raises(TruncatedFileError):
            load_trajectory(f)


# a container in the hand-rolled layout of format version 1, with no entries
V1_CONTAINER = (b"SGNSBIN\x00" + (1).to_bytes(4, "little") + b"trajectory".ljust(16, b"\x00")
                + b"ab" * 32 + bytes(12))


def test_version_mismatch_names_both(tmp_path, additive_system, monkeypatch):
    f = tmp_path / "t.bin"
    with monkeypatch.context() as patch:
        patch.setattr(storage, "VERSION", 99)
        save_trajectory(f, _traj(additive_system), "ab" * 32)
    with pytest.raises(VersionError) as err:
        load_trajectory(f)
    assert err.value.found == 99 and err.value.expected == 2
    assert "99" in str(err.value) and "2" in str(err.value)
    f.write_bytes(V1_CONTAINER)
    with pytest.raises(VersionError) as err:
        load_trajectory(f)
    assert err.value.found == 1 and err.value.expected == 2


def test_wrong_magic(tmp_path):
    f = tmp_path / "junk.bin"
    f.write_bytes(b"NOTMINE!" + b"\x00" * 64)
    with pytest.raises(MagicError):
        load_container(f)


def test_container_trailing_bytes_detected(tmp_path):
    f = tmp_path / "x.bin"
    save_container(f, "trajectory", "0" * 64, arrays={"a": np.arange(4.0)})
    f.write_bytes(f.read_bytes() + b"xx")
    with pytest.raises(StorageError, match="trailing"):
        load_container(f)


def test_flipped_payload_bit_storage_error(tmp_path):
    f = tmp_path / "x.bin"
    values = np.arange(64.0)
    save_container(f, "trajectory", "0" * 64, arrays={"a": values})
    data = bytearray(f.read_bytes())
    data[data.index(values.tobytes()) + 100] ^= 0x10
    f.write_bytes(bytes(data))
    with pytest.raises(StorageError, match="CRC"):
        load_container(f)


def _npz(path, header, **members):
    """A zip as np.savez writes it, with a raw `header` member (bytes or JSON)."""
    if not isinstance(header, bytes):
        header = json.dumps(header).encode()
    with open(path, "wb") as fh:
        np.savez(fh, header=np.frombuffer(header, dtype=np.uint8), **members)


def test_malformed_container_storage_error(tmp_path):
    # a CRC-valid zip whose content this format cannot hold: each used to be a
    # KeyError, UnicodeDecodeError or ValueError inside the loader
    f = tmp_path / "x.bin"
    ok = {"kind": "trajectory", "version": 2, "config_hash": "0" * 64, "meta": {}}
    for header, members in (
            (b"\xff{", {}),                                        # not UTF-8 JSON
            (b"[2]", {}),                                           # JSON, not an object
            ({k: v for k, v in ok.items() if k != "kind"}, {}),     # no kind
            (dict(ok, meta=[1]), {}),                               # meta not a dict
            (ok, {"a": np.zeros(2, dtype=np.float32)}),             # a dtype never written
            (ok, {"a": np.array([None, 1], dtype=object)}),         # a pickled member
            (ok, {"a": np.asfortranarray(np.zeros((2, 3)))})):      # Fortran order
        _npz(f, header, **members)
        with pytest.raises(StorageError):
            load_container(f)
    header = _npy((len(json.dumps(ok)),), json.dumps(ok).encode(), "|u1")
    for members in ({"a.npy": _npy((2,), bytes(16))},                              # no header
                    {"header.npy": header, "a.npy": _npy((2 ** 62, 4), bytes(64))},  # too short
                    {"header.npy": header, "a.npy": _npy((2,), bytes(64))},        # too long
                    {"header.npy": header, "a.txt": b"x"}):                        # not a .npy
        with zipfile.ZipFile(f, "w") as zf:
            for name, payload in members.items():
                zf.writestr(name, payload)
        with pytest.raises(StorageError):
            load_container(f)
    _npz(f, ok, a=np.zeros(2))
    with pytest.raises(StorageError, match="expected 'ensemble-summary'"):
        load_container(f, expect_kind="ensemble-summary")


def _npy(shape, data: bytes, descr="<f8") -> bytes:
    """A .npy member whose header claims `shape`, followed by `data`."""
    npy = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        npy, {"descr": descr, "fortran_order": False, "shape": shape})
    return npy.getvalue() + data


STORED = {"f": np.float64, "i": np.int64, "b": np.int64, "u": np.uint64}
SAMPLE = {"states": np.arange(24.0).reshape(4, 6) / 7,
          "seeds": 2 ** 63 + np.arange(3, dtype=np.uint64),
          "steps": np.array([-1, 0, 5]), "empty": np.zeros((0, 3)), "scalar": np.array(math.pi)}
SAMPLE_META = {"seed": 2 ** 64 - 1, "scheme": "heun", "blowup_time": None}


@pytest.fixture(scope="module")
def sample(tmp_path_factory):
    """The bytes of one container of SAMPLE, and a scratch directory."""
    d = tmp_path_factory.mktemp("sample")
    save_container(d / "sample.bin", "trajectory", "ab" * 32, SAMPLE_META, SAMPLE)
    return (d / "sample.bin").read_bytes(), d


def _loads_sample(box) -> bool:
    header = (box["kind"], box["config_hash"], box["meta"])
    return (header == ("trajectory", "ab" * 32, SAMPLE_META)
            and box["arrays"].keys() == SAMPLE.keys()
            and all(oracles.bit_equal(box["arrays"][k], v) for k, v in SAMPLE.items()))


@given(arrays=st.dictionaries(
           st.text("abxyz_", min_size=1, max_size=4),
           hnp.arrays(st.sampled_from(["<f8", ">f4", "<f2", "<i8", ">i2", "|i1", "<u8", ">u4",
                                       "|u1", "|b1"]),
                      hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)),
           max_size=4),
       seed=st.integers(0, 2 ** 64 - 1), signed=st.integers(-2 ** 63, 2 ** 63 - 1))
def test_round_trip_bitwise_any_dtype_and_shape(sample, arrays, seed, signed):
    f = sample[1] / "round.bin"
    meta = {"seed": seed, "signed": signed, "scheme": "heun"}
    save_container(f, "trajectory", "cd" * 32, meta, arrays)
    box = load_container(f, expect_kind="trajectory", expect_hash="cd" * 32)
    assert box["meta"] == meta and all(type(box["meta"][k]) is int for k in ("seed", "signed"))
    assert box["arrays"].keys() == arrays.keys()
    for name, a in arrays.items():
        # stored as <f8, <i8 or <u8: every value of every kind widens exactly
        assert oracles.bit_equal(box["arrays"][name], a.astype(STORED[a.dtype.kind])), name


@given(data=st.data())
def test_truncated_container_typed_error(sample, data):
    raw, d = sample
    keep = data.draw(st.integers(0, len(raw) - 1))
    (d / "cut.bin").write_bytes(raw[:keep])
    with pytest.raises(MagicError if keep < 4 else TruncatedFileError):
        load_container(d / "cut.bin")


@given(data=st.data())
def test_flipped_bit_never_loads_other_data(sample, data):
    # some zip fields lie outside every CRC (timestamps, say) and may flip harmlessly
    raw, d = sample
    bit = data.draw(st.integers(0, 8 * len(raw) - 1))
    flipped = bytearray(raw)
    flipped[bit // 8] ^= 1 << (bit % 8)
    (d / "flip.bin").write_bytes(bytes(flipped))
    try:
        box = load_container(d / "flip.bin")
    except StorageError:
        return
    assert _loads_sample(box), bit


@given(member=st.integers(0, len(SAMPLE)), keep=st.integers(0, 400))
def test_failed_write_keeps_previous_container(sample, member, keep):
    # the `member`-th .npy member fails after `keep` of its bytes reach the temporary file
    raw, d = sample
    target = d / "atomic" / "c.bin"
    target.parent.mkdir(exist_ok=True)
    target.write_bytes(raw)
    write_array, calls = np.lib.format.write_array, []

    def failing(fp, array, *args, **kwargs):
        if len(calls) == member:
            whole = io.BytesIO()
            write_array(whole, array, *args, **kwargs)
            fp.write(whole.getvalue()[:keep])
            raise OSError("disk full")
        calls.append(array)
        write_array(fp, array, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.lib.format, "write_array", failing)
        with pytest.raises(OSError, match="disk full"):
            save_container(target, "trajectory", "cd" * 32, {},
                           {k: v + 1 for k, v in SAMPLE.items()})
    assert target.read_bytes() == raw and _loads_sample(load_container(target))
    assert [p.name for p in target.parent.iterdir()] == ["c.bin"]


def test_failed_ensemble_write_keeps_each_previous_file(tmp_path, additive_system, monkeypatch):
    # probes are replaced first and the summary last, each whole or not at all:
    # a failure on the first write keeps both old files, one on the second
    # leaves new probes beside the old summary, told apart by their headers
    old = run_ensemble(additive_system, np.zeros(additive_system.n_modes), 2, base_seed=1,
                       dt=1e-3, n_steps=2)
    new = run_ensemble(additive_system, np.zeros(additive_system.n_modes), 3, base_seed=2,
                       dt=1e-3, n_steps=2)
    for failing in range(3):   # 2: no write fails
        files = save_ensemble(tmp_path / "e", old, "ab" * 32)
        before = {key: p.read_bytes() for key, p in files.items()}
        fsyncs = []

        def fsync(fd):
            fsyncs.append(fd)
            if len(fsyncs) > failing:
                raise OSError("disk full")

        with monkeypatch.context() as patch:
            patch.setattr(storage.os, "fsync", fsync)
            if failing < 2:
                with pytest.raises(OSError, match="disk full"):
                    save_ensemble(tmp_path / "e", new, "ab" * 32)
            else:
                save_ensemble(tmp_path / "e", new, "ab" * 32)
        fresh = {key: files[key].read_bytes() != before[key] for key in ("probes", "summary")}
        assert fresh == {"probes": failing >= 1, "summary": failing >= 2}, failing
        assert sorted(p.name for p in tmp_path.iterdir()) == ["e.probes.bin", "e.summary.bin"]
        summary, probes = load_container(files["summary"]), load_container(files["probes"])
        assert (probes["meta"] == summary["meta"]) == (failing != 1), failing
        assert summary["meta"]["members"] == (3 if failing >= 2 else 2)


def test_trajectory_header_types_checked(tmp_path, additive_system):
    # a CRC-valid container from another writer: each bad header value is refused
    traj = _traj(additive_system, n_steps=5)
    good = {"dt": traj.dt, "store_every": 1, "seed": 3, "nu": traj.nu,
            "scheme": "euler_maruyama", "blowup_time": None}
    arrays = {k: v for k, v in vars(traj).items() if isinstance(v, np.ndarray)}
    bad = [("seed", "x"), ("dt", "fast"), ("scheme", 7), ("store_every", 1.5),
           ("seed", True), ("store_every", 0), ("store_every", False), ("nu", float("inf")),
           ("dt", float("nan")), ("scheme", "rk4"), ("blowup_time", "soon"), ("dt", None)]
    f = tmp_path / "t.bin"
    for key, value in bad:
        save_container(f, "trajectory", "ab" * 32, dict(good, **{key: value}), arrays)
        with pytest.raises(StorageError, match="wrong type"):
            load_trajectory(f)
    # an int is a finite number however large, and a blow-up time may be an int
    save_container(f, "trajectory", "ab" * 32, dict(good, dt=10 ** 400, blowup_time=2), arrays)
    assert load_trajectory(f)[0].dt == 10 ** 400


def test_trajectory_shapes_checked(tmp_path, mixed_system):
    # a CRC-valid container whose arrays disagree on the saved grid is refused:
    # times (n+1,), states (n+1, N), the four series (n+1,), increments (n, K)
    path = BrownianPath.generate(3, 1e-3, 8, mixed_system.n_brownian)
    traj = integrate(mixed_system, np.full(mixed_system.n_modes, 0.1), path)
    meta = {"dt": traj.dt, "store_every": 1, "seed": 3, "nu": traj.nu,
            "scheme": "euler_maruyama", "blowup_time": None}
    arrays = {k: v for k, v in vars(traj).items() if isinstance(v, np.ndarray)}
    bad = [{"times": traj.times[:-3]},
           {"times": traj.times[:-3], "increments": traj.increments[:, :1]},
           {"states": traj.states[:-1]}, {"states": traj.states[:, 0]},
           {"energy": traj.energy[1:]}, {"grad_int": traj.grad_int[:, None]},
           {"increments": traj.increments[:-1]}, {"increments": traj.increments[:, 0]},
           {"stoch_int": traj.stoch_int[:-1], "grad_energy": traj.grad_energy[:-1]}]
    f = tmp_path / "t.bin"
    for change in bad:
        save_container(f, "trajectory", "ab" * 32, meta, dict(arrays, **change))
        with pytest.raises(StorageError, match="shapes disagree"):
            load_trajectory(f)
    save_container(f, "trajectory", "ab" * 32, meta, arrays)
    assert load_trajectory(f)[0].states.shape == traj.states.shape


# -- CLI --------------------------------------------------------------------


def _write_config(tmp_path, **overrides):
    doc = dict(MINIMAL)
    doc.update(overrides)
    p = tmp_path / "config.json"
    p.write_text(json.dumps(doc))
    return p


def test_cli_simulate_t0(tmp_path, capsys):
    cfg = _write_config(tmp_path, t_final=0.0, output_dir=str(tmp_path / "out"))
    rc = main(["--config", str(cfg), "simulate"])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    traj, _ = load_trajectory(rec["written"])
    assert traj.times.shape == (1,)


def test_cli_simulate_and_diagnose(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        t_final=0.1,
        output_dir=str(tmp_path / "out"),
        noise={"additive": [{"mode": 0, "coeffs": {"0,1:cos": 0.4}}], "transport": []},
        diagnostics=["energy_residual", "gap_battery"],
    )
    assert main(["--config", str(cfg), "simulate"]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    rc = main(["--config", str(cfg), "diagnose", "--data", out["written"]])
    lines = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    records = [json.loads(l) for l in lines]
    assert all(r["pass"] for r in records if "pass" in r)


def test_cli_diagnose_hash_mismatch(tmp_path, capsys):
    cfg = _write_config(tmp_path, t_final=0.01, output_dir=str(tmp_path / "out"))
    assert main(["--config", str(cfg), "simulate"]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    other = _write_config(tmp_path, t_final=0.02, output_dir=str(tmp_path / "out"))
    rc = main(["--config", str(other), "diagnose", "--data", out["written"]])
    assert rc == 2
    rec = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rec["error"] == "config hash mismatch"
    assert rec["file_hash"] != rec["config_hash"]
    assert len(rec["file_hash"]) == 64 and len(rec["config_hash"]) == 64


def test_cli_diagnose_damaged_container(tmp_path, capsys):
    cfg = _write_config(tmp_path, output_dir=str(tmp_path / "out"))
    assert main(["--config", str(cfg), "simulate"]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    states = load_trajectory(out["written"])[0].states.tobytes()
    data = bytearray(Path(out["written"]).read_bytes())
    # one bit inside the `states` member's data
    data[data.index(states) + len(states) // 2] ^= 0x01
    Path(out["written"]).write_bytes(bytes(data))
    assert main(["--config", str(cfg), "diagnose", "--data", out["written"]]) == 2
    records = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert len(records) == 1 and "CRC" in records[0]["error"], records


def test_cli_diagnose_skipped_check_fails(tmp_path, capsys):
    # a requested check that cannot run on one trajectory is not a pass
    cfg = _write_config(tmp_path, output_dir=str(tmp_path / "out"),
                        diagnostics=["energy_residual", "weak_residual"])
    assert main(["--config", str(cfg), "simulate"]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert main(["--config", str(cfg), "diagnose", "--data", out["written"]]) == 2
    records = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert [(r["check"], r["pass"]) for r in records] == \
        [("energy_residual", True), ("weak_residual", False)]


def test_cli_ensemble_writes_two_containers(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        t_final=0.01,
        output_dir=str(tmp_path / "out"),
        ensemble={"members": 4, "base_seed": 1, "store_every": 1,
                  "probe_times": [0.0, 0.01]},
    )
    assert main(["--config", str(cfg), "ensemble"]) == 0
    rec = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == \
        ["ensemble.probes.bin", "ensemble.summary.bin"]
    summary, probes = (load_container(f) for f in rec["written"])
    assert (summary["kind"], probes["kind"]) == ("ensemble-summary", "ensemble-probes")
    assert summary["config_hash"] == probes["config_hash"] == rec["config_hash"]
    assert summary["meta"] == probes["meta"] and summary["meta"]["members"] == 4
    assert summary["arrays"]["seeds"].size == 4


def test_cli_unknown_subcommand_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code != 0
    assert "usage" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("threads", ["-2", "x"])
def test_cli_refuses_bad_thread_count(capsys, threads):
    with pytest.raises(SystemExit) as exc:
        main(["--threads", threads, "ensemble"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--lenient", "--strict"])
def test_cli_refuses_strictness_flags(capsys, flag):
    # unknown config keys are always fatal, so there is no mode to choose
    with pytest.raises(SystemExit) as exc:
        main([flag, "emit-config"])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_cli_invalid_config_lists_errors(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"viscosity": -2, "scheme": "nope"}))
    rc = main(["--config", str(p), "simulate"])
    assert rc == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) >= 2


def test_cli_determinism_bitwise(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        t_final=0.05,
        output_dir=str(tmp_path / "out"),
        noise={"additive": [{"mode": 0, "coeffs": {"0,1:cos": 0.4}}], "transport": []},
    )
    assert main(["--config", str(cfg), "simulate"]) == 0
    out1 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    first = Path(out1["written"]).read_bytes()
    assert main(["--config", str(cfg), "simulate"]) == 0
    out2 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert Path(out2["written"]).read_bytes() == first


def test_cli_seed_override_changes_output(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        t_final=0.05,
        output_dir=str(tmp_path / "out"),
        noise={"additive": [{"mode": 0, "coeffs": {"0,1:cos": 0.4}}], "transport": []},
    )
    assert main(["--config", str(cfg), "--seed", "7", "simulate"]) == 0
    rec = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    traj, h = load_trajectory(rec["written"])
    assert traj.seed == 7
    # the seed is part of the canonical config, so the hash moves with it
    cfg_plain = parse_config((tmp_path / "config.json").read_text())
    assert h != cfg_plain.hash()


def test_cli_seed_override_validated(tmp_path, capsys, monkeypatch):
    cfg = _write_config(tmp_path, output_dir=str(tmp_path / "out"))
    assert main(["--config", str(cfg), "--seed", "-1", "ensemble"]) == 1
    records = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert records and all("base_seed" in r["config_error"] for r in records)
    monkeypatch.setenv("STOCHFLOW_SEED", "-1")
    assert main(["--config", str(cfg), "ensemble"]) == 1
    assert "base_seed" in capsys.readouterr().out
    # a seed that is not an integer is a usage error, as on the command line
    monkeypatch.setenv("STOCHFLOW_SEED", "seven")
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "ensemble"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_cli_sweep_writes_csv(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, output_dir=str(tmp_path / "out"),
        noise={"additive": [{"mode": 0, "coeffs": {"0,1:cos": 0.4}}], "transport": []},
        sweep={"nus": [0.1, 0.05], "members": 4, "store_every": 5},
    )
    assert main(["--config", str(cfg), "sweep"]) == 0
    records = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert [r["nu"] for r in records[:2]] == [0.1, 0.05]
    rows = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 2 * 4


def test_cli_sweep_failed_write_keeps_previous_csv(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    cfg = _write_config(tmp_path, output_dir=str(out), sweep={"nus": [0.1], "store_every": 1})
    assert main(["--config", str(cfg), "sweep"]) == 0
    before = (out / "sweep.csv").read_bytes()
    other = _write_config(tmp_path, output_dir=str(out),
                          sweep={"nus": [0.1, 0.05], "store_every": 1})

    def fsync(fd):
        raise OSError("disk full")

    monkeypatch.setattr(storage.os, "fsync", fsync)
    with pytest.raises(OSError, match="disk full"):
        main(["--config", str(other), "sweep"])
    assert (out / "sweep.csv").read_bytes() == before
    assert [p.name for p in out.iterdir()] == ["sweep.csv"]


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_cli_output_is_strict_json(tmp_path, capsys):
    # a one-nu sweep has no exponent to fit: NaN, which strict JSON writes as null
    cfg = _write_config(
        tmp_path, output_dir=str(tmp_path / "out"),
        noise={"additive": [{"mode": 0, "coeffs": {"0,1:cos": 0.4}}], "transport": []},
        sweep={"nus": [0.1], "members": 4, "store_every": 5},
    )
    assert main(["--config", str(cfg), "sweep"]) == 0
    records = [json.loads(l, parse_constant=_refuse_constant)
               for l in capsys.readouterr().out.strip().splitlines()]
    assert records[0]["nu"] == 0.1
    assert records[-1]["weighted_exponent"] is None
