import math

import pytest


@pytest.fixture(scope="session")
def session_cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("hecke_cache"))


@pytest.fixture(autouse=True)
def _redirect_cache(session_cache_dir, monkeypatch):
    # keep eigenform disk caches out of the working tree and shared across tests
    monkeypatch.setenv("HECKE_CACHE_DIR", session_cache_dir)


@pytest.fixture(scope="session")
def python_primes():
    """primes(x): the primes <= x as a list, by a bytearray sieve
    independent of heckedens.primes."""

    def primes(x):
        sieve = bytearray([1]) * (x + 1)
        sieve[:2] = b"\0\0"
        for i in range(2, math.isqrt(x) + 1):
            if sieve[i]:
                sieve[i * i :: i] = bytes(len(range(i * i, x + 1, i)))
        return [i for i in range(x + 1) if sieve[i]]

    return primes
