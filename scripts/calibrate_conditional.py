"""Size and power of ``verify``'s conditional-sampler check over many seeds.

Runs ``check_conditional_sampler(40, 25, seed)`` (the suite's scale) of the
``stirtree`` on ``PYTHONPATH`` for every seed in [first, last) and prints one
``seed p`` line per seed (p as the check prints it, to four significant
digits).  Then it prints how many p fall below 10^-3 and 0.01, each with its
95 % Clopper-Pearson interval (scipy's beta quantiles), and the one-sample
KS p-value of the p-values against U[0, 1).  The check's streams do not
depend on the KS form it applies, so two checkouts run over one seed range
test the same rejection samples.  ``--fault`` makes the detector refuse
every other bar it accepts in the top tenth of the viable set, in each
collection: a thinning the check should catch.

    PYTHONPATH=src python scripts/calibrate_conditional.py 0 1500
    PYTHONPATH=src python scripts/calibrate_conditional.py 0 300 --fault
"""

import argparse
import re

from stirtree import ks, verify
from stirtree.bars import normalized_position
from stirtree.events import multibar_cluster, viable_locations


def thin_the_top(detector):
    """``detector``, but in each collection every other bar it accepts at a
    viable-set position of 0.9 or more is refused, starting with the second;
    draws nothing, so the streams are unchanged, and a seed's verdict does
    not depend on the seeds run before it."""
    state = {"bars": None, "vl": None, "top": 0}

    def accept(bars, added, traj):
        if not detector(bars, added, traj):
            return False
        if state["bars"] is not bars:
            state["bars"] = bars
            state["vl"] = viable_locations(bars, traj, multibar_cluster(bars))
            state["top"] = 0
        if normalized_position(state["vl"], added) < 0.9:
            return True
        state["top"] += 1
        return state["top"] % 2 == 1

    return accept


def clopper_pearson(k: int, n: int) -> tuple[float, float]:
    """Exact two-sided 95 % interval for a binomial rate k/n.

    scipy is imported here, so the tests can load ``thin_the_top`` without it.
    """
    from scipy.stats import beta

    lower = beta.ppf(0.025, k, n - k + 1) if k else 0.0
    upper = beta.ppf(0.975, k + 1, n - k) if k < n else 1.0
    return lower, upper


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("first", type=int)
    parser.add_argument("last", type=int)
    parser.add_argument("--fault", action="store_true")
    args = parser.parse_args()
    if args.fault:
        verify.crossing_without_bottleneck = thin_the_top(
            verify.crossing_without_bottleneck
        )
    ps = []
    for seed in range(args.first, args.last):
        detail = verify.check_conditional_sampler(40, 25, seed).detail
        ps.append(float(re.search(r"KS p=(\S+) over", detail)[1]))
        print(seed, ps[-1], flush=True)
    n = len(ps)
    for floor in (1e-3, 1e-2):
        k = sum(p < floor for p in ps)
        lo, hi = clopper_pearson(k, n)
        print(f"p < {floor:g}: {k}/{n}, 95% CI [{lo:.5f}, {hi:.5f}]")
    print(f"KS of the {n} p-values against U[0, 1): p={ks.uniform_pvalue(ps):.4g}")


if __name__ == "__main__":
    main()
