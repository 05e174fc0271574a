"""E8 — specification-to-generated-code ratio and synthesis cost.

The paper's abstract: "whereas the generated Jinn code is 22,000+ lines,
we wrote only 1,400 lines of state machine and mapping code".  This bench
counts our specification lines (the eleven machine modules) against the
synthesizer's generated module, and times synthesis itself.

The measured ratio is smaller than the paper's 15.7x because generated
Python calls shared runtime primitives where generated C expands
everything inline; the *shape* — a small declarative spec expanding into
thousands of generated checker lines — is asserted.
"""

import os

from benchmarks.conftest import print_table
from repro.jinn import Synthesizer, build_registry, count_noncomment_lines

PAPER_SPEC_LINES = 1400
PAPER_GENERATED_LINES = 22000


def _spec_line_count():
    import repro.jinn.machines as machines_pkg

    spec_dir = os.path.dirname(machines_pkg.__file__)
    total = 0
    per_file = {}
    for fname in sorted(os.listdir(spec_dir)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(spec_dir, fname)) as f:
            count = count_noncomment_lines(f.read())
        per_file[fname] = count
        total += count
    return total, per_file


def test_spec_vs_generated_ratio(benchmark):
    source = benchmark(
        lambda: Synthesizer(build_registry()).generate_pipeline_source()
    )
    generated = count_noncomment_lines(source)
    spec_total, per_file = _spec_line_count()

    rows = [(name, lines) for name, lines in per_file.items()]
    rows.append(("TOTAL specification", spec_total))
    rows.append(("GENERATED module", generated))
    rows.append(("ratio (measured)", round(generated / spec_total, 2)))
    rows.append(
        (
            "ratio (paper)",
            round(PAPER_GENERATED_LINES / PAPER_SPEC_LINES, 2),
        )
    )
    print_table(
        "E8 — specification vs generated checker (non-comment lines)",
        ("artifact", "lines"),
        rows,
    )

    # Shape: the spec is the same order of size as the paper's 1,400
    # lines, and the generated module is thousands of lines larger.
    assert spec_total < 2.0 * PAPER_SPEC_LINES
    assert generated > 3000
    assert generated / spec_total > 3.0


def test_synthesis_and_compile_cost(benchmark):
    """End-to-end cost of Algorithm 1 + codegen + compile."""
    benchmark(lambda: Synthesizer(build_registry()).build_pipeline())
