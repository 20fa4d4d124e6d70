"""Regenerate data/alpha_cycles.json, the stored answers of the normalizer workload.

For each odd cycle C_n with one self-loop under the uniform measure, the
normalizer comes from the enumeration oracle
``detailed.alpha_inverse_from_blocks`` (not from ``stationary.alpha``, the
function the workload measures), together with the stability margin, the
number of independent sets and the number of blocks.  C_n is
vertex-transitive, so these values hold for every labelling and loop
position the workload draws from its seed.  Takes a few seconds.

    python3 perfbench/gen_alpha_table.py
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(1, str(HERE.parent / "src"))

from multimatch import detailed, graphs, measures  # noqa: E402
from workloads import CYCLE_SIZES, cycle_graph  # noqa: E402


def main() -> None:
    table = {}
    for n in CYCLE_SIZES:
        labels = [f"c{k}" for k in range(n)]
        g = cycle_graph(graphs, labels, labels[0])
        mu = measures.ProbMeasure.uniform(g)
        inverse = detailed.alpha_inverse_from_blocks(g, mu)
        table[str(n)] = {
            "alpha": str(Fraction(1) / inverse),
            "margin": str(measures.ncond_check(g, mu).margin),
            "independent_sets": sum(1 for _ in g.independent_sets()),
            "blocks": sum(1 for _ in detailed.blocks(g)),
        }
        print(n, table[str(n)], flush=True)
    out = HERE / "data" / "alpha_cycles.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
