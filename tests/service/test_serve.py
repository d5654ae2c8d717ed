"""``repro-serve --answers-json``: the file written from columnar answers.

The CLI renders each tenant's answers from ``QueryAnswer.columns`` and
``QueryAnswer.array``. The file must be byte-for-byte what rendering the
same answers group by group (``answer.items()``) produces: same keys,
same float text, same layout.
"""

from __future__ import annotations

import json
import math

import numpy as np

from repro.service import serve
from tests.service.conftest import SCHEMA


def _push(dataset, values, start, stop) -> str:
    return json.dumps({
        "op": "push",
        "columns": {a: dataset.columns[a][start:stop].tolist()
                    for a in SCHEMA.attributes},
        "timestamps": dataset.timestamps[start:stop].tolist(),
        "values": values[start:stop].tolist(),
    })


def _items_rendering(service) -> str:
    """The group-by-group rendering, from the dict view of each answer."""
    out = {}
    for tenant in sorted({w["tenant"] for w in service.leases()}):
        out[tenant] = {
            label: {str(epoch): {",".join(map(str, group)): value
                                 for group, value in answer.items()}
                    for epoch, answer in per_epoch.items()}
            for label, per_epoch in service.answers(tenant).items()}
    return json.dumps(out, indent=2, sort_keys=True)


def test_answers_json_equals_items_rendering(tmp_path, dataset,
                                             monkeypatch, capsys):
    values = np.random.default_rng(3).random(len(dataset)) * 100.0
    n = len(dataset)
    third = n // 3
    workload = tmp_path / "workload.jsonl"
    workload.write_text("\n".join([
        json.dumps({"op": "register", "tenant": "steady",
                    "group_by": "AB"}),
        json.dumps({"op": "register", "tenant": "heavy",
                    "query": "select B, C, avg(v) from R "
                             "group by B, C, time/2 "
                             "having count(*) >= 2"}),
        _push(dataset, values, 0, third),
        json.dumps({"op": "register", "tenant": "late",
                    "query": "select D, max(v) from R group by D, time/2"}),
        _push(dataset, values, third, 2 * third),
        json.dumps({"op": "retire", "tenant": "heavy"}),
        _push(dataset, values, 2 * third, n),
        json.dumps({"op": "finish"}),
    ]) + "\n")
    captured = {}
    render = serve._answers_jsonable

    def spy(service):
        captured["service"] = service
        return render(service)

    monkeypatch.setattr(serve, "_answers_jsonable", spy)
    path = tmp_path / "answers.json"
    assert serve.main([str(workload), "--attributes", "A,B,C,D",
                       "--memory", "2000", "--epoch-seconds", "2",
                       "--value-column", "v",
                       "--answers-json", str(path)]) == 0
    capsys.readouterr()
    written = path.read_text()
    assert written == _items_rendering(captured["service"])
    doc = json.loads(written)
    assert sorted(doc) == ["heavy", "late", "steady"]
    assert all(doc[t] and all(doc[t].values()) for t in doc)
    # HAVING filtered some groups out, so the mask path was rendered.
    assert any(len(groups) < 24 * 48
               for groups in doc["heavy"]["BC"].values())


def test_malformed_lines_are_error_events(tmp_path, dataset, capsys):
    """Each bad line gets an ``error`` event naming its line number, and
    the run ends exactly as the same workload without those lines."""
    values = np.zeros(len(dataset))
    half = len(dataset) // 2
    no_b = json.loads(_push(dataset, values, 0, half))
    del no_b["columns"]["B"]
    bad = {2: "not json",
           3: json.dumps({"op": "bogus"}),
           4: json.dumps({"op": "register", "group_by": "CD"}),
           5: json.dumps(no_b),
           # wrongly typed fields
           6: json.dumps({**no_b, "columns": [1, 2]}),
           7: json.dumps({"op": "register", "tenant": ["x"],
                          "group_by": "CD"}),
           8: json.dumps({"op": "register", "tenant": "acme",
                          "group_by": 7}),
           9: json.dumps({"op": "retire", "tenant": "acme",
                          "group_by": 7}),
           10: json.dumps({"op": "register", "tenant": "acme",
                           "group_by": "CD", "expected_groups": [1]}),
           11: json.dumps({"op": "register", "tenant": "acme",
                           "query": 5}),
           # group-count hints no plan can take
           12: json.dumps({"op": "register", "tenant": "acme",
                           "group_by": "CD", "expected_groups": math.nan}),
           13: json.dumps({"op": "register", "tenant": "acme",
                           "group_by": "CD", "expected_groups": math.inf}),
           14: json.dumps({"op": "register", "tenant": "acme",
                           "group_by": "CD", "expected_groups": -5}),
           15: json.dumps({"op": "register", "tenant": "acme",
                           "group_by": "CD", "expected_groups": 1e308})}
    good = [json.dumps({"op": "register", "tenant": "acme",
                        "group_by": "AB"}),
            _push(dataset, values, 0, half),
            _push(dataset, values, half, len(dataset)),
            json.dumps({"op": "finish"})]

    def run(lines, name):
        workload = tmp_path / f"{name}.jsonl"
        workload.write_text("\n".join(lines) + "\n")
        answers = tmp_path / f"{name}.json"
        assert serve.main([str(workload), "--attributes", "A,B,C,D",
                           "--memory", "2000", "--epoch-seconds", "2",
                           "--answers-json", str(answers)]) == 0
        events = [json.loads(line)
                  for line in capsys.readouterr().out.splitlines()]
        return answers.read_text(), events

    clean, _ = run(good, "clean")
    noisy, events = run(good[:1] + list(bad.values()) + good[1:], "noisy")
    errors = [e for e in events if e["event"] == "error"]
    assert [e["line"] for e in errors] == sorted(bad)
    assert "not JSON" in errors[0]["message"]
    assert "unknown op 'bogus'" in errors[1]["message"]
    assert "'tenant'" in errors[2]["message"]
    assert "missing column 'B'" in errors[3]["message"]
    assert [e["message"] for e in errors[4:]] == [
        "push op's 'columns' field must be an object, not an array",
        "register op's 'tenant' field must be a string, not an array",
        "register op's 'group_by' field must be a string, not a number",
        "retire op's 'group_by' field must be a string, not a number",
        "register op's 'expected_groups' field must be a number, not an "
        "array",
        "register op's 'query' field must be a string, not a number",
        *(f"expected_groups must be a finite number in "
          f"[1, {2**63}], got {hint}"
          for hint in ("nan", "inf", "-5", "1e+308"))]
    assert noisy == clean
    assert json.loads(noisy)["acme"]["AB"]["0"]
