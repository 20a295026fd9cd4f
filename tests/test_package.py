"""The package surface: lazy layer modules, re-exported names, start-up cost.

A command should execute only the layer modules it uses.  The start-up
checks run each job in a fresh interpreter, because this test process
has long since loaded every layer.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import magiccount
from magiccount import cli, recurrences

ROOT = Path(__file__).resolve().parents[1]
LAYERS = ("cli", "labelings", "genfun", "recurrences", "matrices", "poly", "polytope")
#: The set-up probe job: a one-vertex loop-free ring at s = 0, no work.
PROBE = ("count", "--cycle", "-n", "1", "-k", "0", "--s-max", "0")

#: Runs one command in-process, then reports its exit status, the layer
#: modules whose bodies ran and every module imported.  ``type()`` does not
#: trigger a lazy load, so reading it leaves the layers as the command left them.
#: The module list is taken before the script imports ``json`` to print it.
REPORT = """
import sys, types
from magiccount import cli
status = cli.main(sys.argv[1:])
modules = sorted(sys.modules)
layers = {name.split(".")[1]: type(module) is types.ModuleType
          for name, module in sys.modules.items() if name.startswith("magiccount.")}
import json
print(json.dumps({"status": status, "layers": layers, "modules": modules}))
"""


def _env() -> dict:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def _python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=_env(), capture_output=True, text=True, timeout=60)


# -- start-up: a command executes only the layers it uses -----------------------


@pytest.mark.parametrize(
    "argv, executed",
    [
        (PROBE, {"cli", "labelings"}),
        (("polytope", "-n", "5"), {"cli", "poly", "polytope"}),
        (("polytope", "-n", "5", "--format", "json"), {"cli", "poly", "polytope"}),
    ],
)
def test_a_command_executes_only_the_layers_it_uses(argv, executed):
    proc = _python("-c", REPORT, *argv)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["status"] == 0
    assert set(report["layers"]) == set(LAYERS), "every layer is registered in sys.modules"
    assert {layer for layer, ran in report["layers"].items() if ran} == executed
    assert {"inspect", "dataclasses"}.isdisjoint(report["modules"])
    if argv[0] == "count":
        assert "fractions" not in report["modules"]
    assert ("json" in report["modules"]) == ("json" in argv), "only a JSON write imports json"


def test_the_probe_job_prints_h0():
    proc = _python("-m", "magiccount.cli", *PROBE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["s", "count", "0", "1"]


def test_static_identity_ids_follow_the_catalog():
    assert cli.IDENTITY_IDS == tuple(recurrences.CATALOG)


def test_traced_probe_job_records_its_count_span(tmp_path):
    """The benchmark's traced launcher wraps every layer after importing cli."""
    trace = tmp_path / "trace.json"
    proc = _python(str(ROOT / "perfbench" / "launch.py"), str(trace), *PROBE)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(trace.read_text())
    assert record["exit"] == 0
    assert "labelings.count_cycle" in {span[2] for span in record["spans"]}


# -- the re-exported names --------------------------------------------------------


@pytest.mark.parametrize("name", magiccount.__all__)
def test_exported_name_is_its_home_modules_object(name):
    home = importlib.import_module(f"magiccount.{magiccount._HOME[name]}")
    value = getattr(magiccount, name)
    assert value is getattr(home, name)
    assert getattr(value, "__module__", home.__name__) == home.__name__


def test_star_import_and_dir_list_every_exported_name():
    namespace: dict = {}
    exec("from magiccount import *", namespace)
    assert set(magiccount.__all__) <= set(namespace)
    assert set(magiccount.__all__) <= set(dir(magiccount))
    assert {"labelings", "polytope", "__version__"} <= set(dir(magiccount))


def test_from_import_of_exported_names():
    from magiccount import CATALOG, GraphSpec, count_line

    assert count_line(1, 2, 3) == GraphSpec.line(1, 2).count(3) == 20
    assert CATALOG is recurrences.CATALOG


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        magiccount.no_such_name  # noqa: B018
    assert not hasattr(magiccount, "count_cycles")
