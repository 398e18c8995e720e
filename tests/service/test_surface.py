"""The registry's public surface, pinned as exact lists: one node over
one store, so a new export, config field or store keyword is a
deliberate test edit rather than a silent addition."""

import dataclasses
import inspect

import repro.service
from repro.service import DescriptorStore, ServiceConfig
from repro.service.protocol import Route


def test_package_exports_only_the_single_node_names():
    assert sorted(repro.service.__all__) == [
        "AsyncRegistryClient",
        "DescriptorStore",
        "LRUCache",
        "PublishResult",
        "RegistryClient",
        "RegistryEndpoint",
        "RegistryServer",
        "ServerThread",
        "ServiceConfig",
        "ServiceMetrics",
        "TTLCache",
        "percentile",
    ]


def test_service_config_fields():
    assert [f.name for f in dataclasses.fields(ServiceConfig)] == [
        "host",
        "port",
        "max_queue",
        "executor_threads",
        "max_body_bytes",
        "idle_timeout_s",
        "overload_policy",
    ]


def test_descriptor_store_keywords():
    params = inspect.signature(DescriptorStore.__init__).parameters
    keywords = [
        name
        for name, param in params.items()
        if param.kind is inspect.Parameter.KEYWORD_ONLY
    ]
    assert keywords == ["platform_cache_size", "preselect_cache_size", "metrics"]
    assert list(params) == ["self", *keywords]


def test_route_fields():
    assert [f.name for f in dataclasses.fields(Route)] == [
        "name",
        "method",
        "template",
        "gated",
    ]
