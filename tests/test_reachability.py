"""Every function in `src/stochflow` is reached by a command, or is listed here.

The test runs the command line in a fresh interpreter under a
`sys.setprofile` hook that is installed before `import stochflow`, so the
functions that run at import time (`config._object`,
`basis._phase_code_table`) count as reached too.  The interpreter drives
`stochflow.io_cli.cli.main` through `emit-config`, `verify`, and `simulate`,
`diagnose` (all five diagnostics), `ensemble` and `sweep` on a small 2-D Heun
config and a 3-D Euler-Maruyama config, each with additive and transport
noise, and prints the (file, first line) of every code object it entered.

Every `def` under `src/stochflow`, listed with `ast` (lambdas are not), must
have had its `def` line or its first decorator line entered, unless it is in
`ALLOWED`.  Each entry names the ROADMAP item that will wire it up, or why
no command can reach it.  The list only shrinks: an entry whose function a
command now reaches, or that no longer exists, fails the test as well, and
its length is pinned.

Run it alone with `python -m pytest tests/test_reachability.py`.
"""

import ast
import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

# function -> the ROADMAP item that will wire it, or why it runs only when it fires
ALLOWED = {
    "stochflow.diagnostics.relative_energy": "item 5",
    "stochflow.experiments.order_study": "items 8 and 21",
    "stochflow.basis.BasisSpec.embedding_into": "items 15 and 21",
    "stochflow.basis.ConvectionTensor.scatter": "items 16 and 17 (only benchmark/ reads it)",
    "stochflow.diagnostics.dissipative_weak_residual":
        "items 16 and 17 (only benchmark/ runs it)",
    "stochflow.ensemble.empirical_measure": "items 16 and 17 (only benchmark/ runs it)",
    "stochflow.ensemble.EmpiricalYoungMeasure.mean_field":
        "items 16 and 17 (only benchmark/ runs it)",
    "stochflow.io_cli.storage.VersionError.__init__": "error constructor, runs when it fires",
    "stochflow.io_cli.storage.HashMismatchError.__init__":
        "error constructor, runs when it fires",
}

# the exit codes of the driven commands, in order; diagnose exits 2 because
# it reports the three ensemble diagnostics as skipped (item 17)
EXPECTED_CODES = {"emit-config": [0], "verify": [0], "simulate": [0, 0],
                  "diagnose": [2, 2], "ensemble": [0, 0], "sweep": [0, 0]}

_DIAGNOSTICS = ["energy_residual", "gap_battery", "reynolds_defect", "moment_report",
                "weak_residual"]

CONFIGS = {
    "2d": {"basis": {"dim": 2, "cutoff": 2}, "scheme": "heun", "t_final": 0.05,
           "initial": {"kind": "gaussian", "scale": 0.5},
           "noise": {"additive": [{"mode": 0, "coeffs": {"0,1:cos": 0.3}}],
                     "transport": [{"mode": 1, "coeffs": {"1,0:cos": 0.4, "0,1:sin": 0.2}}]},
           "ensemble": {"members": 4}, "diagnostics": _DIAGNOSTICS,
           "sweep": {"nus": [0.1, 0.05], "members": 2}},
    "3d": {"basis": {"dim": 3, "cutoff": 1}, "scheme": "euler_maruyama", "t_final": 0.05,
           "initial": {"kind": "gaussian", "scale": 0.5},
           "noise": {"additive": [{"mode": 0, "coeffs": {"0,0,1:p0:cos": 0.3}}],
                     "transport": [{"mode": 1, "coeffs": {"0,1,0:p0:cos": 0.4,
                                                          "1,0,1:p0:sin": 0.2}}]},
           "ensemble": {"members": 4}, "diagnostics": _DIAGNOSTICS,
           "sweep": {"nus": [0.1, 0.05], "members": 2}},
}


def drive(out: Path) -> dict:
    """Run the commands under a profile hook; the exit codes and every
    (file, first line) entered.  Must run before anything imports stochflow."""
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(hook)
    threading.setprofile(hook)  # the ensemble's pool threads, if it starts one
    try:
        from stochflow.io_cli.cli import main

        codes = {}

        def run(command, *argv, options=()):
            with contextlib.redirect_stdout(io.StringIO()):
                codes.setdefault(command, []).append(main([*options, command, *argv]))

        run("emit-config")
        run("verify")
        for name, cfg in CONFIGS.items():
            path = out / f"{name}.json"
            path.write_text(json.dumps(cfg))
            options = ["--config", str(path), "--out", str(out / name)]
            run("simulate", options=options)
            run("diagnose", "--data", str(out / name / "trajectory.bin"), options=options)
            threads = ["--threads", "2"] if name == "2d" else []
            run("ensemble", options=options + threads)
            run("sweep", options=options)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return {"codes": codes,
            "entered": sorted({(code.co_filename, code.co_firstlineno) for code in entered})}


def _functions(package: Path) -> dict:
    """Qualified name -> (file, def line, first decorator line) of every def."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[name] = (path, child.lineno, first)
                walk(child, path, name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for path in sorted(package.rglob("*.py")):
        module = ".".join(path.relative_to(package.parent).with_suffix("").parts)
        walk(ast.parse(path.read_text(), str(path)), str(path.resolve()), module + ".")
    return found


def test_every_function_is_reached_or_allowed(tmp_path):
    package = Path(importlib.util.find_spec("stochflow").origin).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(package.parent),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-W", "error", __file__, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-4000:]
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["codes"] == EXPECTED_CODES
    entered = {(str(Path(f).resolve()), line) for f, line in report["entered"]}

    functions = _functions(package)
    unreached = {name for name, (path, line, first) in functions.items()
                 if (path, line) not in entered and (path, first) not in entered}
    assert not unreached - ALLOWED.keys(), (
        "no command reaches these functions: wire them up or delete them",
        sorted(unreached - ALLOWED.keys()))
    assert not ALLOWED.keys() - unreached, (
        "reached or gone: remove these from ALLOWED", sorted(ALLOWED.keys() - unreached))
    assert len(ALLOWED) <= 9  # the allowlist only shrinks


if __name__ == "__main__":
    print(json.dumps(drive(Path(sys.argv[1]))))
