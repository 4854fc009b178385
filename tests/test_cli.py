"""Command-line interface: the study command end to end."""

import dataclasses
import json

from thinjunction import cli
from thinjunction.study import load_plan, run_study


def _without_timing(doc):
    for target in doc["targets"]:
        for row in target["rows"]:
            del row["wall_ms"]
    return doc


def test_study_command_writes_the_report(tmp_path, fx_spec):
    plan = {"spec": dataclasses.replace(fx_spec, order=0).to_json(),
            "epsilons": [0.3, 0.25, 0.2],
            "targets": ["COR42_L2_U0", "COR43_POINTWISE"],
            "axial": 0.05, "fem_refine": 0.4}
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    out = tmp_path / "out"

    code = cli.main(["study", "--plan", str(path), "--out", str(out),
                     "--format", "both"])

    report = run_study(load_plan(str(path)))
    assert report.passed and code == 0
    written = json.loads((out / "study.json").read_text())
    assert _without_timing(written) == _without_timing(report.to_json())
    rows = (out / "study.csv").read_text().splitlines()
    assert rows[0].startswith("target,epsilon,error")
    assert len(rows) == 1 + 2 * 3
