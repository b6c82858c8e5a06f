import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    max_examples=50,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


def _exhaustive_pair_scan(x, g, mu, chunk=64):
    """Every grid pair x1 < mu < x2 scored; the best value and pair.

    Pairs are scored ``chunk`` rows at a time with the elementwise formula
    tau g(x1) + (1 - tau) g(x2), tau = (x2 - mu) / (x2 - x1), and the first
    maximum in (x1, x2) order wins. With no point on one side of mu there is
    no pair: (-inf, None).
    """
    xl, gl = x[x < mu], g[x < mu]
    xh, gh = x[x > mu], g[x > mu]
    best_v, best_pair = -math.inf, None
    if len(xh) == 0:
        return best_v, best_pair
    for start in range(0, len(xl), chunk):
        xb = xl[start : start + chunk, None]
        gb = gl[start : start + chunk, None]
        tau = (xh[None, :] - mu) / (xh[None, :] - xb)
        V = tau * gb + (1.0 - tau) * gh[None, :]
        i, j = np.unravel_index(int(np.argmax(V)), V.shape)
        if V[i, j] > best_v:
            best_v, best_pair = float(V[i, j]), (float(xb[i, 0]), float(xh[j]))
    return best_v, best_pair


@pytest.fixture(scope="session")
def exhaustive_pair_scan():
    """The O(n^2) reference that ``oracle.pair_scan`` must match bit for bit."""
    return _exhaustive_pair_scan


_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)_([a-z0-9_]+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion, always visible."""
    seen: dict[int, tuple[str, str]] = {}
    for status, verdict in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for report in terminalreporter.stats.get(status, []):
            match = _CRITERION.search(getattr(report, "nodeid", ""))
            if not match:
                continue
            num, slug = int(match.group(1)), match.group(2)
            if seen.get(num, ("", "PASS"))[1] != "FAIL":
                seen[num] = (slug, verdict)
    if not seen:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(seen):
        slug, verdict = seen[num]
        terminalreporter.write_line(f"criterion {num}: {verdict} ({slug.replace('_', ' ')})")
