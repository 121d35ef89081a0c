import importlib.util
import re
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scaling_smoke(capsys):
    scaling = load_script("scaling")
    assert scaling.main(["--sizes", "100,316,1000", "--repeats", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "states\tnodes\tarcs\tbuild_s"
    assert [line.split("\t")[0] for line in lines[1:4]] == ["100", "316", "1000"]
    assert re.fullmatch(r"# log-log slope = -?\d+\.\d{3}, R\^2 = \d\.\d{3}", lines[4])
