"""The five relm-e2e workloads, by name.

Modules are imported on demand: a workload's ``setup_s`` includes the
imports it needs, not its siblings' (asyncio, scipy)."""

from __future__ import annotations

import importlib

_CLASSES = {
    "url_extract": ("workloads.url_extract", "UrlExtract"),
    "lambada_cloze": ("workloads.lambada_cloze", "LambadaCloze"),
    "bias_sample": ("workloads.bias_sample", "BiasSample"),
    "tf_rank": ("workloads.tf_rank", "TfRank"),
    "service_mix": ("workloads.service_mix", "ServiceMix"),
}

NAMES = tuple(_CLASSES)


def load(name: str) -> type:
    """The :class:`harness.Workload` subclass called *name*."""
    module, attribute = _CLASSES[name]
    return getattr(importlib.import_module(module), attribute)
