"""Runtime determinism sanitizer: the dynamic half of ROP013.

The static effect analysis proves what it can see; this module catches
what it cannot (effects behind dynamic dispatch, C extensions, code
the analyzer never parsed). Under ``ROPUS_SANITIZE=1`` every pool
worker arms the sanitizer in its initializer
(:func:`repro.engine.executor._install_shared`), monkey-patching the
process-ambient nondeterminism entry points so that any work unit
touching them raises :class:`~repro.exceptions.DeterminismViolation`
instead of silently diverging between serial and parallel runs.

What is patched — and, as importantly, what is not:

* **patched**: absolute clocks (``time.time``/``time_ns``/
  ``localtime``/``gmtime``/``ctime``), the module-level ``random.*``
  convenience functions (they all share one hidden global
  ``random.Random`` instance), the legacy ``numpy.random.*`` ambient
  API (global ``RandomState``), and ``numpy.random.default_rng``
  *without* an explicit seed;
* **not patched**: the monotonic duration clocks
  (``perf_counter``/``monotonic``/``process_time``) and ``time.sleep``
  — pool machinery, instrumentation, and the fault-injection harness
  rely on them, and a duration measurement is not a result — plus
  seeded constructors (``default_rng(seed)``, ``random.Random(seed)``)
  and explicit :class:`numpy.random.Generator` instances, which are
  exactly the sanctioned alternatives the violation message points at.

The sanitizer is installed only in *worker* processes: the driver
keeps unrestricted clocks for instrumentation and scheduling. It is
idempotent and reversible (:func:`uninstall`), so tests can arm and
disarm it freely within one process.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable

from repro.exceptions import DeterminismViolation

#: Environment flag consulted by :func:`maybe_install` (and therefore
#: by every pool-worker initializer).
ENV_FLAG = "ROPUS_SANITIZE"

#: ``time`` module functions that read an absolute clock.
_TIME_FUNCTIONS = (
    "time",
    "time_ns",
    "localtime",
    "gmtime",
    "ctime",
)

#: ``random`` module functions backed by the hidden global instance.
_RANDOM_FUNCTIONS = (
    "random",
    "uniform",
    "randint",
    "randrange",
    "choice",
    "choices",
    "sample",
    "shuffle",
    "gauss",
    "normalvariate",
    "betavariate",
    "expovariate",
    "getrandbits",
    "seed",
)

#: Legacy ``numpy.random`` functions backed by the global RandomState.
_NUMPY_RANDOM_FUNCTIONS = (
    "random",
    "random_sample",
    "rand",
    "randn",
    "randint",
    "choice",
    "shuffle",
    "permutation",
    "uniform",
    "normal",
    "standard_normal",
    "poisson",
    "exponential",
    "seed",
)

#: (module, attribute) -> original callable, while installed.
_SAVED: dict[tuple[Any, str], Any] = {}


def _raiser(description: str, remedy: str) -> Callable[..., Any]:
    def _blocked(*_args: Any, **_kwargs: Any) -> Any:
        raise DeterminismViolation(
            f"{description} called inside a sanitized worker; {remedy}."
        )

    return _blocked


def _patch(module: Any, attribute: str, replacement: Any) -> None:
    key = (module, attribute)
    if key in _SAVED:  # pragma: no cover - guarded by installed()
        return
    original = getattr(module, attribute, None)
    if original is None:
        return
    _SAVED[key] = original
    setattr(module, attribute, replacement)


def installed() -> bool:
    """Whether the sanitizer is currently armed in this process."""
    return bool(_SAVED)


def install() -> None:
    """Arm the sanitizer in this process. Idempotent."""
    if installed():
        return

    for name in _TIME_FUNCTIONS:
        _patch(
            time,
            name,
            _raiser(
                f"time.{name}()",
                "take timestamps in the driver and pass them in as "
                "explicit arguments (perf_counter/monotonic stay "
                "available for duration instrumentation)",
            ),
        )

    import random as random_module

    for name in _RANDOM_FUNCTIONS:
        _patch(
            random_module,
            name,
            _raiser(
                f"random.{name}()",
                "draw from an explicitly seeded generator instead "
                "(random.Random(seed) or repro.util.rng.derive_rng)",
            ),
        )

    try:
        import numpy.random as numpy_random
    except ImportError:  # pragma: no cover - numpy is a core dep
        numpy_random = None
    if numpy_random is not None:
        for name in _NUMPY_RANDOM_FUNCTIONS:
            _patch(
                numpy_random,
                name,
                _raiser(
                    f"numpy.random.{name}()",
                    "use a numpy.random.Generator derived from an "
                    "explicit seed (derive_rng/SeedSequenceFactory)",
                ),
            )

        original_default_rng = numpy_random.default_rng

        def _checked_default_rng(
            seed: Any = None, *args: Any, **kwargs: Any
        ) -> Any:
            if seed is None and not args and not kwargs:
                raise DeterminismViolation(
                    "numpy.random.default_rng() without a seed called "
                    "inside a sanitized worker; pass an explicit seed "
                    "(derive_rng/SeedSequenceFactory) or a SeedSequence."
                )
            return original_default_rng(seed, *args, **kwargs)

        _patch(numpy_random, "default_rng", _checked_default_rng)


def uninstall() -> None:
    """Restore every patched entry point. Idempotent."""
    while _SAVED:
        (module, attribute), original = _SAVED.popitem()
        setattr(module, attribute, original)


def maybe_install() -> bool:
    """Arm the sanitizer iff ``ROPUS_SANITIZE=1``; returns whether armed.

    Called from pool-worker initializers: the environment is inherited
    from the driver, so exporting the flag once sanitizes every worker
    the run spawns without any API changes.
    """
    if os.environ.get(ENV_FLAG) == "1":
        install()
        return True
    return False
