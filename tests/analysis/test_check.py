"""``zcache-repro check``: each mode end to end at tiny sizes.

CI runs the full-size command lines; these pin that every mode runs,
passes on the unplanted tree, and that ``check`` without a mode is a
usage error rather than a run that checks nothing.
"""

import pytest

from repro.analysis.cli import run_check


def test_sanitize_mode_covers_zcaches_and_fig2_arrays(capsys):
    argv = ["--sanitize", "--accesses", "200", "--fig2-accesses", "500"]
    assert run_check(argv) == 0
    out = capsys.readouterr().out
    assert "zcache smoke: ok" in out
    assert "fig2 sanitized: ok" in out
    assert "overhead: baseline" in out


def test_model_mode_passes(capsys):
    assert run_check(["--model", "--model-depth", "2"]) == 0
    assert "model check:" in capsys.readouterr().out


def test_lockset_mode_passes_and_flags_the_planted_shard(capsys):
    assert run_check(["--lockset"]) == 0
    assert "planted unlocked shard flagged" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [[], ["--sanitize", "--model"]])
def test_check_needs_exactly_one_mode(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run_check(argv)
    assert exc.value.code == 2
    assert "--sanitize" in capsys.readouterr().err
