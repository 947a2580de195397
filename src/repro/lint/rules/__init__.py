"""The shipped rules.  Importing this package registers every rule.

One module per contract family:

* :mod:`.determinism` — DET001 (unordered iteration on the determinism
  surface), DET002 (banned nondeterminism sources in result-affecting code)
* :mod:`.cachekey` — CACHE001 (the config-field cache-key partition)
* :mod:`.obs` — OBS001 (telemetry neutrality: no config knowledge in
  ``repro.obs``, ``registry.enabled`` cheap-check at hot call sites)
* :mod:`.locks` — LOCK001 (lock-owned state mutated only under the lock,
  no blocking calls while holding it)
* :mod:`.kernels` — KERN001 (numpy confined to ``graph/kernels.py``)
"""

from . import cachekey, determinism, kernels, locks, obs  # noqa: F401
