"""Retired tier-3 chain compiler: a stub that reports zero work.

Tier-3 chains were deleted; tier 2's mid-trace resume (see
:mod:`repro.vm.blocks`) kept their one real win without the recompiles.
The cold-run benchmark harness (``perfbench/layers.py``) still wraps
``build_chain`` and reads ``chain_cache_info``, so both names stay:
nothing calls ``build_chain``, and the counters stay zero.
"""


def build_chain(*args, **kwargs):
    """Never called: no execution tier links chains any more."""
    raise NotImplementedError("tier-3 chains were removed")


def chain_cache_info() -> dict:
    """Chain-compiler statistics: always zero."""
    return {"built": 0, "bound": 0, "factories": 0}
