import ast
import json
import os
import pathlib
import subprocess
import sys
import textwrap

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# each module may import only the modules before it, so the package has no
# import cycle, not even through an import deferred into a function
MODULE_ORDER = ("_util", "sequences", "functionals", "simulate", "estimator",
                "adaptive", "oracle", "harness", "cli")


def package_imports(path: pathlib.Path) -> set:
    """Names of the ``flradapt`` modules a source file imports anywhere."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            parts = [alias.name.split(".") for alias in node.names]
            found.update(p[1] for p in parts if p[0] == "flradapt" and len(p) > 1)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("flradapt"):
                continue
            module = (node.module or "").split(".")
            if node.level == 0:
                module = module[1:]
            if module and module[0]:
                found.add(module[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def fresh_interpreter_json(probe: str):
    """The JSON that ``probe`` prints, run in a fresh interpreter that
    imports this tree's package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def test_import_loads_neither_scipy_nor_yaml():
    # scipy is a test-only dependency and yaml is needed by the CLI alone;
    # importing the library must pull in neither
    probe = ("import json, sys, flradapt; "
             "print(json.dumps(sorted(m for m in ('scipy', 'yaml') if m in sys.modules)))")
    assert fresh_interpreter_json(probe) == []


def test_inline_study_loads_neither_the_pool_nor_logging():
    # a study below harness.THREADED_MIN_NORMALS draws every replicate on
    # the calling thread, so it never imports concurrent.futures, which
    # loads logging (about 10 ms of import time)
    probe = textwrap.dedent("""
        import json, sys
        import flradapt
        from flradapt import harness, simulate

        def loaded():
            return sorted(m for m in ("concurrent.futures", "logging") if m in sys.modules)

        after_import = loaded()
        cfg = flradapt.StudyConfig(
            model=flradapt.SequenceModel(regime=flradapt.Regime.PP, p=1.0, a=1.0),
            spec=flradapt.PointEval(t0=0.3), sigma=1.0, n_grid=(16, 32),
            replicates=2, base_seed=5)
        n_max = cfg.n_grid[-1]
        assert n_max * simulate.default_truncation(n_max) < harness.THREADED_MIN_NORMALS
        flradapt.run_study(cfg)
        print(json.dumps([after_import, loaded()]))
    """)
    assert fresh_interpreter_json(probe) == [[], []]


def test_modules_import_only_earlier_modules():
    package = SRC / "flradapt"
    modules = {path.stem for path in package.glob("*.py")} - {"__init__"}
    assert modules == set(MODULE_ORDER)
    for rank, name in enumerate(MODULE_ORDER):
        later = package_imports(package / f"{name}.py") - set(MODULE_ORDER[:rank])
        assert not later, f"{name} imports {sorted(later)}"


def test_oracle_does_not_import_the_sampler():
    # the population functions take the Covariance they describe; the oracle
    # builds none itself
    assert "simulate" not in package_imports(SRC / "flradapt" / "oracle.py")
