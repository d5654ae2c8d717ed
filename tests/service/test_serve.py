"""``repro-serve --answers-json``: the file written from columnar answers.

The CLI renders each tenant's answers from ``QueryAnswer.columns`` and
``QueryAnswer.array``. The file must be byte-for-byte what rendering the
same answers group by group (``answer.items()``) produces: same keys,
same float text, same layout.
"""

from __future__ import annotations

import json

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
