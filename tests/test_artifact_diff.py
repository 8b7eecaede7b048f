"""tools/artifact_diff.py on two tiny fake artifact trees."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "artifact_diff.py"
_spec = importlib.util.spec_from_file_location("artifact_diff", _PATH)
ad = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ad)

_CSV = "# config_hash=abc\n# seed=0\nmode,chain_mean,z\n0,0.5,1.25\n1,-2.0,0.5\n"
_REPORT = ("preset: p\nseed: 0\n[PASS] p-z: measured=1.25 required <= 3\n"
           "[PASS] p-relerr: measured=0.01 required <= 0.05\noverall: PASS\n")
_DEMO = "mode  mean\n   0  0.5000\nrelative error: 1.16%\n"


def _tree(root: Path, csv=_CSV, report=_REPORT, demo=_DEMO, extra=None) -> Path:
    for name, text in {"run/p/results.csv": csv, "run/p/report.txt": report,
                       "demos/d.txt": demo, **(extra or {})}.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text, encoding="utf-8")
    return root


def test_nothing_moved(tmp_path, capsys):
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b")
    result = ad.compare(a, b)
    assert result == {"only_parent": [], "only_change": [], "moved": [], "drift": {},
                      "verdicts": {}}
    assert ad.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out.strip() == "moved: 0 file(s)"


def test_a_moved_column_a_flipped_verdict_and_a_moved_demo_number(tmp_path, capsys):
    a = _tree(tmp_path / "a")
    b = _tree(tmp_path / "b",
              csv=_CSV.replace("0,0.5,1.25", "0,0.5000001,3.5").replace("-2.0,", "-2.5,"),
              report=_REPORT.replace("[PASS] p-z: measured=1.25", "[FAIL] p-z: measured=3.5"),
              demo=_DEMO.replace("1.16%", "1.17%"), extra={"run/p/new.txt": "x\n"})
    result = ad.compare(a, b)
    assert result["only_parent"] == [] and result["only_change"] == ["run/p/new.txt"]
    assert result["moved"] == ["demos/d.txt", "run/p/report.txt", "run/p/results.csv"]
    cols = result["drift"]["run/p/results.csv"]
    assert set(cols) == {"chain_mean", "z"}               # the mode column did not move
    assert cols["chain_mean"]["max_abs"] == pytest.approx(0.5)
    assert cols["chain_mean"]["max_rel"] == pytest.approx(0.25)     # 0.5 on -2.0
    assert cols["z"]["max_abs"] == pytest.approx(2.25)
    assert cols["z"]["max_rel"] == pytest.approx(1.8)
    assert result["drift"]["demos/d.txt"]["(numbers)"]["max_abs"] == pytest.approx(0.01)
    (flip,) = result["verdicts"]["run/p/report.txt"]
    assert flip["criterion"] == "p-z" and flip["parent"].startswith("[PASS]") \
        and flip["change"].startswith("[FAIL]")
    # a flipped verdict changes its line beyond the numbers: the verdict list names it
    assert result["drift"]["run/p/report.txt"] == {"shape": "a line changed beyond its numbers"}
    assert ad.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "only in the change: run/p/new.txt" in out
    assert "chain_mean: max abs 0.5, max rel 0.25" in out and "verdict of p-z" in out


def test_structural_changes_are_named_not_measured(tmp_path):
    a = _tree(tmp_path / "a")
    b = _tree(tmp_path / "b", csv=_CSV + "2,1.0,0.0\n", demo=_DEMO.replace("mean", "avg"))
    result = ad.compare(a, b)
    assert result["drift"]["run/p/results.csv"] == {"shape": "header or row count changed"}
    assert result["drift"]["demos/d.txt"] == {"shape": "a line changed beyond its numbers"}
