"""Command-line interface behavior and artifact output."""

import json

import pytest

from mmarch.cli import main
from mmarch.metrics import metrics
from mmarch.trace import read_trace


def test_run_writes_trace_and_metrics(tmp_path, capsys):
    trace_path = tmp_path / "run.trace"
    metrics_path = tmp_path / "run.json"
    rc = main(["run", "--model", "threat", "--cycles", "50",
               "--trace", str(trace_path), "--metrics", str(metrics_path)])
    assert rc == 0
    trace = read_trace(trace_path)
    assert trace.cycle_length_ms == 50
    report = json.loads(metrics_path.read_text())
    assert report["central_firings"] == 4
    assert report["interrupt_latencies"] == [1]
    # metrics recomputed from the written trace agree with the written report
    assert metrics(trace).to_dict() == report
    out = capsys.readouterr().out
    assert "threat-demo" in out


def test_missing_model_flag_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["run", "--cycles", "5"])
    assert err.value.code == 2


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["run", "--model", "threat", "--frobnicate"])
    assert err.value.code == 2


def test_unknown_model_exits_1(capsys):
    rc = main(["run", "--model", "no-such-file.json", "--cycles", "1"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_invalid_model_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "name": "bad",
        "buffers": [{"name": "b", "owner": "ghost"}],
    }))
    rc = main(["run", "--model", str(bad), "--cycles", "1"])
    assert rc == 1
    assert "unknown owner" in capsys.readouterr().err


def test_step_twice_equals_run_two_cycles(tmp_path):
    a = tmp_path / "step.trace"
    b = tmp_path / "run.trace"
    assert main(["step", "--model", "threat", "--cycles", "2",
                 "--trace", str(a)]) == 0
    assert main(["run", "--model", "threat", "--cycles", "2",
                 "--trace", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_inspect_initial_state(capsys):
    rc = main(["inspect", "--model", "threat"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "cycle: 0" in out
    assert "goal [central] goal(state:navigate)" in out


def test_inspect_golden_after_five_cycles(capsys):
    rc = main(["inspect", "--model", "threat", "--cycles", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "model: threat-demo"
    assert lines[1] == "mode: mm"
    assert lines[2] == "cycle: 5"
    assert lines[3] == "time_ms: 250"
    assert "  emotion [emotion] urgent threat(level:high source:bear)" in out
    assert "  #1 act=2.24820 tag=emotion percept(value:bear) pres=2" in out
    assert "  central/flee-threat = 10" in out
    assert "  emotion/raise-alarm = 2" in out


def test_inspect_mm_rows_sorted_by_activation(capsys):
    main(["inspect", "--model", "retrieval", "--cycles", "3", "--top", "5"])
    out = capsys.readouterr().out
    rows = [line for line in out.splitlines() if line.startswith("  #")]
    acts = [float(row.split("act=")[1].split(" ")[0]) for row in rows]
    assert acts == sorted(acts, reverse=True)


def test_demos_lists_bundles(capsys):
    assert main(["demos"]) == 0
    out = capsys.readouterr().out
    for name in ("threat", "retrieval", "wordloop", "bottleneck"):
        assert name in out


def _noisy_model(tmp_path, name):
    from mmarch import demos
    doc = json.loads(demos.path(name).read_text())
    doc.setdefault("middle_memory", {})["noise"] = 0.3
    path = tmp_path / f"{name}-noisy.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("name", ["threat", "retrieval"])
def test_verbose_step_does_not_change_the_trace(tmp_path, capsys, name):
    model = str(_noisy_model(tmp_path, name))
    a = tmp_path / "step.trace"
    b = tmp_path / "run.trace"
    assert main(["step", "--model", model, "--cycles", "60", "--seed", "7",
                 "--verbose", "--trace", str(a)]) == 0
    assert main(["run", "--model", model, "--cycles", "60", "--seed", "7",
                 "--trace", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_negative_cycles_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["run", "--model", "threat", "--cycles", "-1"])
    assert err.value.code == 2


def test_wrongly_typed_model_field_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "bad", "middle_memory": {"decay": "fast"}}))
    rc = main(["run", "--model", str(bad), "--cycles", "1"])
    assert rc == 1
    assert "middle_memory.decay" in capsys.readouterr().err


def test_model_directory_exits_1(tmp_path, capsys):
    rc = main(["run", "--model", str(tmp_path), "--cycles", "1"])
    assert rc == 1
    assert "error: model validation failed" in capsys.readouterr().err


def test_non_utf8_model_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"name": "caf\xe9"}')
    rc = main(["run", "--model", str(bad), "--cycles", "1"])
    assert rc == 1
    assert "not UTF-8" in capsys.readouterr().err
