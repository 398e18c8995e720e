"""The blocking clients are generated from their async twins: every
public coroutine has a blocking method with the same signature and
docstring, and no method the hand-written facades offered went missing."""

import inspect

import pytest

from repro.service import (
    AsyncClusterClient,
    AsyncRegistryClient,
    ClusterClient,
    RegistryClient,
)

_PAIRS = [
    (RegistryClient, AsyncRegistryClient),
    (ClusterClient, AsyncClusterClient),
]

#: public methods of the hand-written blocking facades these replaced
_PRIOR_METHODS = {
    RegistryClient: [
        "cache_stats", "close", "delete_tag", "diff", "fetch",
        "fetch_profile", "health", "info", "lint", "metrics", "platform",
        "platforms", "preselect", "preselect_batch", "profiles", "publish",
        "publish_profile", "put_blob", "query", "request", "resolve",
        "retag",
    ],
    ClusterClient: [
        "cache_stats", "close", "delete_tag", "diff", "fetch",
        "fetch_profile", "health", "lint", "metrics", "platform",
        "platforms", "preselect", "preselect_batch", "profiles", "publish",
        "publish_profile", "query", "resolve", "retag", "status",
        "wait_converged",
    ],
}


def _public_coroutines(async_cls):
    return [
        name
        for name, _ in inspect.getmembers(async_cls, inspect.iscoroutinefunction)
        if not name.startswith("_") and name != "aclose"
    ]


@pytest.mark.parametrize(
    "blocking_cls, async_cls", _PAIRS, ids=lambda cls: cls.__name__
)
def test_every_coroutine_has_an_equal_blocking_twin(blocking_cls, async_cls):
    names = _public_coroutines(async_cls)
    assert names
    for name in names:
        twin = getattr(blocking_cls, name, None)
        assert twin is not None, f"{blocking_cls.__name__}.{name} missing"
        assert not inspect.iscoroutinefunction(twin), name
        coro = getattr(async_cls, name)
        assert inspect.signature(twin) == inspect.signature(coro), name
        assert twin.__doc__ == coro.__doc__, name


@pytest.mark.parametrize(
    "blocking_cls", list(_PRIOR_METHODS), ids=lambda cls: cls.__name__
)
def test_no_prior_method_went_missing(blocking_cls):
    for name in _PRIOR_METHODS[blocking_cls]:
        assert callable(getattr(blocking_cls, name, None)), name


def test_constructors_take_only_their_endpoint_arguments():
    assert list(inspect.signature(RegistryClient).parameters) == ["endpoint"]
    params = inspect.signature(ClusterClient).parameters
    assert list(params) == ["cluster_map", "endpoint_overrides"]
    assert params["endpoint_overrides"].kind is inspect.Parameter.KEYWORD_ONLY
