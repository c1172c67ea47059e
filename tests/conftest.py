import numpy as np
import pytest

from dttokit import BlaschkeProduct, BlaschkeQuotient

try:
    from hypothesis import settings
except ImportError:  # only the property tests need it; they fail on import alone
    pass
else:
    # reproducible property tests: fixed example order, no example database,
    # no per-example deadline; each test sets only its own max_examples.
    # Derandomized draws still depend on what is imported: Hypothesis 6.155
    # draws about 5 % of its numbers from a pool that includes the numeric
    # literals of every loaded local module that is not a test file
    # (providers._get_local_constants), so collecting perfbench/*.py, or a
    # literal added to src/dttokit, changes the examples every property test
    # sees.  No setting turns the pool off; a case one collection happened
    # to find is kept as an explicit @example.
    settings.register_profile("dttokit", derandomize=True, database=None, deadline=None)
    settings.load_profile("dttokit")


def random_blaschke(rng, max_degree=6, max_modulus=0.9, degree=None) -> BlaschkeProduct:
    d = int(degree) if degree is not None else int(rng.integers(1, max_degree + 1))
    r = rng.uniform(0.0, max_modulus, d)
    th = rng.uniform(0.0, 2.0 * np.pi, d)
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    return BlaschkeProduct(phase, tuple(r * np.exp(1j * th)))


def random_quotient(rng, max_degree=3, max_modulus=0.8, z_power_range=(0, 2)) -> BlaschkeQuotient:
    d = int(rng.integers(0, max_degree + 1))
    r = rng.uniform(0.0, max_modulus, d)
    th = rng.uniform(0.0, 2.0 * np.pi, d)
    zp = int(rng.integers(z_power_range[0], z_power_range[1] + 1))
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    return BlaschkeQuotient(phase, zp, tuple(r * np.exp(1j * th)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
