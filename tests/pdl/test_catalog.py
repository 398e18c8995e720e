"""Unit tests for the shipped descriptor catalog."""

import os

import pytest

from repro.errors import PDLError
from repro.pdl.catalog import available_platforms, load_platform, platform_path
from repro.pdl.validator import validate_document


class TestCatalog:
    def test_expected_platforms_shipped(self):
        names = available_platforms()
        for expected in (
            "listing1_gpgpu",
            "xeon_x5550_dual",
            "xeon_x5550_2gpu",
            "cell_qs22",
            "hybrid_cluster",
        ):
            assert expected in names

    def test_all_shipped_validate(self):
        for name in available_platforms():
            platform = load_platform(name)
            assert validate_document(platform).ok, name

    def test_unknown_platform(self):
        with pytest.raises(PDLError, match="no shipped platform"):
            load_platform("vax11")

    def test_platform_path_exists(self):
        path = platform_path("cell_qs22")
        assert os.path.exists(path)
        with pytest.raises(PDLError):
            platform_path("vax11")

    def test_figure5_platforms_shape(self):
        cpu = load_platform("xeon_x5550_dual")
        gpu = load_platform("xeon_x5550_2gpu")
        # 8 CPU cores behind one master; GPU platform adds 2 gpu workers
        assert cpu.pu("cpu").quantity == 8
        assert cpu.total_pu_count() == 9
        assert gpu.total_pu_count() == 11
        assert {pu.id for pu in gpu.workers()} == {"cpu", "gpu0", "gpu1"}
        assert gpu.pu("gpu0").descriptor.get_str("MODEL") == "GeForce GTX 480"
        assert gpu.pu("gpu1").descriptor.get_str("MODEL") == "GeForce GTX 285"

    def test_figure5_gpu_platform_has_listing2_properties(self):
        gpu = load_platform("xeon_x5550_2gpu")
        d = gpu.pu("gpu0").descriptor
        ocl_props = d.by_namespace("ocl")
        names = {p.name for p in ocl_props}
        assert {"DEVICE_NAME", "MAX_COMPUTE_UNITS", "GLOBAL_MEM_SIZE",
                "LOCAL_MEM_SIZE"} <= names
        assert all(not p.fixed for p in ocl_props)  # runtime-generated

    def test_cell_platform_shape(self):
        cell = load_platform("cell_qs22")
        assert cell.pu("spe").quantity == 8
        assert cell.pu("spe").architecture == "spe"
        assert cell.masters[0].architecture == "ppc64"

    def test_hybrid_cluster_hierarchy(self):
        cluster = load_platform("hybrid_cluster")
        assert [pu.kind for pu in cluster.walk()] == [
            "Master", "Hybrid", "Worker", "Hybrid", "Worker",
        ]

    def test_listing1_matches_paper(self):
        p = load_platform("listing1_gpgpu")
        assert p.pu("0").architecture == "x86"
        assert p.pu("1").architecture == "gpu"
        ic = p.interconnects()[0]
        assert ic.type == "rDMA" and ic.endpoints() == ("0", "1")


class TestParseCache:
    """The content-digest parse cache behind load_platform (shared with
    the registry service's store)."""

    def setup_method(self):
        from repro.pdl import clear_parse_cache

        clear_parse_cache()

    def test_second_load_is_a_cache_hit(self):
        from repro.pdl import parse_cache_info

        load_platform("xeon_x5550_2gpu")
        before = parse_cache_info()
        load_platform("xeon_x5550_2gpu")
        after = parse_cache_info()
        assert after.hits == before.hits + 1
        assert after.misses == before.misses

    def test_loads_return_independent_objects(self):
        a = load_platform("cell_qs22")
        a.pu("spe").quantity = 1
        a.name = "mutated"
        b = load_platform("cell_qs22")
        assert b.pu("spe").quantity == 8
        assert b.name != "mutated"

    def test_content_digest_stable(self):
        from repro.pdl import content_digest

        assert content_digest("abc") == content_digest(b"abc")
        assert len(content_digest("abc")) == 64
        assert content_digest("abc") != content_digest("abd")

    def test_parse_cached_respects_kwargs(self):
        from repro.pdl import parse_cache_info, parse_cached, platform_path

        with open(platform_path("cell_qs22"), encoding="utf-8") as handle:
            text = handle.read()
        parse_cached(text, validate=True)
        before = parse_cache_info()
        # different validate flag -> different key -> miss, not a stale hit
        parse_cached(text, validate=False)
        after = parse_cache_info()
        assert after.misses == before.misses + 1

    def test_cache_is_bounded(self):
        from repro.pdl import parse_cache_info

        for name in available_platforms():
            load_platform(name)
        info = parse_cache_info()
        assert info.size <= info.limit


_DIGEST = "0123456789abcdef" * 4


@pytest.mark.parametrize(
    "ref, expected",
    [
        (_DIGEST, True),
        (_DIGEST[:63], False),
        (_DIGEST + "0", False),
        (_DIGEST.upper(), False),
        (_DIGEST[:63] + "g", False),
    ],
    ids=["64-lower-hex", "63-chars", "65-chars", "upper-hex", "non-hex"],
)
def test_is_full_digest(ref, expected):
    from repro.pdl.catalog import content_digest, is_full_digest

    assert is_full_digest(ref) is expected
    assert is_full_digest(content_digest("abc"))
