"""CLI trace/simulate workflow (Section V-G) end to end."""

from repro.cli import main


def test_trace_then_simulate_round_trip(tmp_path, capsys):
    out = tmp_path / "traces"
    assert main([
        "--cap", "800", "trace", "selection", "cactus/gru", "--out", str(out),
        "--limit", "3", "--max-warps", "4", "--max-insns", "64",
    ]) == 0
    written = sorted(out.glob("*.trace"))
    assert len(written) == 3
    capsys.readouterr()

    assert main(["simulate", str(out)]) == 0
    report = capsys.readouterr().out
    for path in written:
        assert path.name in report
    assert "cycles" in report and "ipc" in report


def test_simulate_empty_directory(tmp_path, capsys):
    assert main(["simulate", str(tmp_path)]) == 0
    assert "no .trace files" in capsys.readouterr().out
