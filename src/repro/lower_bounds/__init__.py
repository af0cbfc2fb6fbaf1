"""Lower-bound constructions and indistinguishability utilities.

The paper proves three lower bounds:

* **Theorem 4.6** -- token dropping (already at height 2) requires
  Ω(Δ + log n / log log n) rounds, by reduction from bipartite maximal
  matching;
* **Theorem 6.3** -- finding a stable orientation requires Ω(Δ) rounds,
  by an indistinguishability argument between a Δ-regular graph of girth
  ≥ Δ + 1 and a perfect Δ-ary tree (Lemmas 6.1 and 6.2);
* **Theorem 7.4** -- the 2-bounded stable assignment problem requires
  Ω(Δ + log n / log log n) rounds, again by reduction from maximal
  matching.

Lower bounds cannot be "run", but their *constructions* and *premises*
can: this subpackage builds the exact instance families the proofs use and
checks the lemmas' statements programmatically, which is what experiments
E2 and E5 report.
"""

from repro.lower_bounds.constructions import (
    height2_matching_instance,
    lemma61_violations,
    lemma62_witness,
    matching_from_height2_solution,
    theorem63_instance_pair,
)
from repro.lower_bounds.indistinguishability import (
    radius_t_view,
    views_isomorphic,
)

__all__ = [
    "height2_matching_instance",
    "lemma61_violations",
    "lemma62_witness",
    "matching_from_height2_solution",
    "radius_t_view",
    "theorem63_instance_pair",
    "views_isomorphic",
]
