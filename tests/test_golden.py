"""Byte-stable golden files for the serialized result schemas."""

import json
from pathlib import Path

import pytest

from flaghg import fixedlocus, mirror
from flaghg.algebra import LinearProduct
from flaghg.cli import main
from flaghg.mirror import hori_vafa_verify, integral_Id
from flaghg.tableaux import FlagSpec

GOLDEN = Path(__file__).parent / "golden"


def _render(data) -> str:
    return json.dumps(data, sort_keys=True, indent=1) + "\n"


@pytest.mark.parametrize("name,spec", [
    ("integral_p1_d1.json", FlagSpec(2, (1,), (1,))),
    ("integral_p1_d2.json", FlagSpec(2, (1,), (2,))),
    ("integral_fl12c3_d11.json", FlagSpec(3, (1, 2), (1, 1))),
])
def test_integral_golden(name, spec):
    got = _render(integral_Id(spec).to_json())
    assert got == (GOLDEN / name).read_text()


def test_integral_golden_from_the_normal_ledger(monkeypatch):
    # the oracle reads the normal ledger itself: integral_Id assigns no
    # roots and builds no Euler class as polynomials
    def refuse(*args, **kwargs):
        raise AssertionError("integral_Id built a polynomial Euler class")

    monkeypatch.setattr(fixedlocus, "euler_product_from_ledger", refuse)
    monkeypatch.setattr(fixedlocus, "canonical_roots", refuse)
    monkeypatch.setattr(mirror, "canonical_roots", refuse)
    monkeypatch.setattr(LinearProduct, "mul_factor", refuse)
    got = _render(integral_Id(FlagSpec(3, (1, 2), (1, 1))).to_json())
    assert got == (GOLDEN / "integral_fl12c3_d11.json").read_text()


def test_hori_vafa_golden():
    got = _render(hori_vafa_verify(3, 2, 1).to_json())
    assert got == (GOLDEN / "hori_vafa_gr2c3_d1.json").read_text()


def test_integral_fl123c5_d111_report(tmp_path, capsys):
    # recorded before the oracle took factored integrands; only the cache
    # key, which covers the source files, may differ
    argv = ["integral", "--n", "5", "--ranks", "1,2,3", "--degrees",
            "1,1,1", "--json", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    got = json.loads(capsys.readouterr().out)
    want = json.loads((GOLDEN / "integral_fl123c5_d111.json").read_text())
    assert json.dumps(got["results"], sort_keys=True, separators=(",", ":")) \
        == json.dumps(want["results"], sort_keys=True, separators=(",", ":"))
    for report in (got, want):
        del report["provenance"]["cache"]["key"]
    assert got == want


def test_integral_fl24c6_d11_is_lambda_independent():
    spec = FlagSpec(6, (2, 4), (1, 1))
    first, second = (integral_Id(spec, lambda_seed=seed) for seed in (0, 5))
    assert first.value == second.value
    assert first.per_tableau == second.per_tableau


def test_tableaux_explain_fl124c6_d121_report(tmp_path, capsys):
    # pins the general_components section; the cache key covers the
    # source files, so only results and work are compared
    argv = ["tableaux", "--n", "6", "--ranks", "1,2,4", "--degrees",
            "1,2,1", "--explain", "--json", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    got = json.loads(capsys.readouterr().out)
    want = json.loads(
        (GOLDEN / "tableaux_explain_fl124c6_d121.json").read_text())
    assert got["results"] == want["results"]
    assert got["provenance"]["work"] == want["provenance"]["work"]
