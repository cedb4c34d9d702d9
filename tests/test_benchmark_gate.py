"""The benchmark's own correctness gate, run with the tests.

`perfbench/selftest.py` solves one instance of every workload kind and
feeds its check a corrupted witness and a false claim of infeasibility, and
it counts where a table-cap refusal is seen. Running those two checks here
catches a change that breaks an API the benchmark calls, a slot's answer,
or that refusal boundary, before the benchmark itself runs. The files under
`perfbench/` are imported, never edited.
"""

from __future__ import annotations

import os

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_benchmark_gate(tmp_path, monkeypatch):
    # selftest imports `tracing` from its own directory when it runs
    monkeypatch.syspath_prepend(PERFBENCH)
    import selftest
    import workloads

    m = workloads.load_modules()
    assert selftest.check_gate(workloads, m, str(tmp_path)) > 0
    selftest.check_refusal_count(m)
