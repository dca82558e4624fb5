import ast
import json
import os
import pathlib
import subprocess
import sys

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


def test_import_loads_neither_scipy_nor_yaml():
    # scipy is a test-only dependency and yaml is needed by the CLI alone;
    # importing the library must pull in neither
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe = ("import json, sys, flradapt; "
             "print(json.dumps(sorted(m for m in ('scipy', 'yaml') if m in sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == []


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
