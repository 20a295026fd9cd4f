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
from fractions import Fraction
from pathlib import Path

import pytest

import magiccount
from magiccount import cli, genfun, recurrences

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
        (("verify", "--n-max", "5"), {"cli", "labelings", "matrices", "poly", "recurrences"}),
        (("fit", "-n", "3", "-k", "1"), {"cli", "genfun", "labelings", "matrices", "poly", "recurrences"}),
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


# -- the frozen value classes of genfun and recurrences --------------------------------


@pytest.mark.parametrize(
    "make, repr_head",
    [
        (
            lambda: genfun.ehrhart_numerator("line", 1),
            "NumeratorReport(kind='line', n=1, one_minus_x_power=4, has_one_plus_x=False,"
            " numerator=Poly('1')",
        ),
        (
            lambda: genfun.QuasiPoly(phi=(Fraction(1), Fraction(1, 2)), psi=Fraction(1, 8), degree=1),
            "QuasiPoly(phi=(Fraction(1, 1), Fraction(1, 2)), psi=Fraction(1, 8), degree=1)",
        ),
        (
            lambda: recurrences.CATALOG["inv-eq-mirror1"],
            "Identity(identity_id='inv-eq-mirror1', min_index=1, description='char(inv_n) = char(mirror1_n)',"
            " sides=<function ",
        ),
        (
            lambda: recurrences.IdentityCheck(index=3, holds=False, diff=recurrences.Y),
            "IdentityCheck(index=3, holds=False, diff=Poly('y'))",
        ),
        (
            lambda: recurrences.verify_identity("inv-eq-mirror1", stop=1),
            "IdentityReport(identity_id='inv-eq-mirror1', start=1, stop=1,"
            " checks=(IdentityCheck(index=1, holds=True, diff=None),))",
        ),
    ],
    ids=["NumeratorReport", "QuasiPoly", "Identity", "IdentityCheck", "IdentityReport"],
)
def test_value_class_is_a_frozen_record(make, repr_head):
    record = make()
    cls = type(record)
    fields = tuple(cls.__annotations__)
    values = tuple(getattr(record, name) for name in fields)
    assert cls(*values) == record == cls(**dict(zip(fields, values))) == make()
    assert record != values and not record == values, "a record never equals a tuple"
    assert cls(*values[:-1], object()) != record
    assert hash(record) == hash(values) == hash(make())
    assert repr(record).startswith(repr_head)
    assert repr(record) == f"{cls.__name__}(" + ", ".join(f"{f}={v!r}" for f, v in zip(fields, values)) + ")"
    with pytest.raises(AttributeError, match=f"cannot assign to field '{fields[0]}'"):
        setattr(record, fields[0], values[0])
    with pytest.raises(AttributeError, match=f"cannot delete field '{fields[-1]}'"):
        delattr(record, fields[-1])
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        record.extra = 1
    assert getattr(record, fields[0]) == values[0]
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(**dict(zip(fields[1:], values[1:])))
    with pytest.raises(TypeError):
        cls(*values, extra=1)
    with pytest.raises(TypeError):
        cls(*values, values[0])
