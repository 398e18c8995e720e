"""The blocking client is generated from its async twin: every public
coroutine has a blocking method with the same signature and docstring,
and no method the hand-written facade offered went missing."""

import inspect

import pytest

from repro.service import AsyncRegistryClient, RegistryClient

_PAIRS = [
    (RegistryClient, AsyncRegistryClient),
]

#: public methods of the hand-written blocking facade this replaced
_PRIOR_METHODS = {
    RegistryClient: [
        "cache_stats", "close", "delete_tag", "diff", "fetch",
        "fetch_profile", "health", "info", "lint", "metrics", "platform",
        "platforms", "preselect", "preselect_batch", "profiles", "publish",
        "publish_profile", "query", "request", "resolve", "retag",
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
