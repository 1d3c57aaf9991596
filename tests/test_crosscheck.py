"""The internal consistency suite that backs the crosscheck subcommand."""

from hschain import run_crosscheck


def test_small_sweep_is_consistent():
    report = run_crosscheck(max_n=6)
    assert report.passed
    assert not report.failures
    names = {result.name for result in report.results}
    assert names == {
        "density_dp_vs_composition",
        "level_support_vs_density_dp",
        "density_dp_vs_brute_force",
        "moments_closed_form_vs_density",
        "charfn_transfer_vs_density",
    }


def test_every_result_carries_its_spec():
    report = run_crosscheck(max_n=4)
    families = {result.spec.family for result in report.results}
    assert families == {"HS", "PF", "FI"}
    for result in report.results:
        assert result.passed
        assert result.deviation >= 0.0
