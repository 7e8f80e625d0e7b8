"""Tests for the SAGA layer: URLs, registry, job API, filesystem."""

import pytest

from repro.cluster import stampede, wrangler
from repro.cluster.storage import MB
from repro.rms import RmsConfig
from repro.saga import (
    Description,
    Registry,
    Service,
    Site,
    Url,
    copy_file,
)
from repro.saga import job as saga_job
from repro.sim import Environment

FAST = RmsConfig(submit_latency=0.5, prolog_seconds=1.0,
                 epilog_seconds=0.5)


@pytest.fixture()
def testbed():
    env = Environment()
    registry = Registry()
    site = registry.register(Site(env, stampede(num_nodes=3),
                                  rms_kind="slurm", rms_config=FAST))
    return env, registry, site


# ----------------------------------------------------------------- URLs
def test_url_parse_full():
    url = Url.parse("slurm://stampede/scratch/x")
    assert (url.scheme, url.host, url.path) == ("slurm", "stampede",
                                                "/scratch/x")


def test_url_parse_no_path():
    url = Url.parse("slurm://stampede")
    assert url.path == "/"


def test_url_rejects_malformed():
    for bad in ("stampede", "://host", "slurm://"):
        with pytest.raises(ValueError):
            Url.parse(bad)


def test_url_str_roundtrip():
    assert str(Url.parse("sge://wrangler/a/b")) == "sge://wrangler/a/b"


# ------------------------------------------------------------- registry
def test_registry_lookup(testbed):
    _, registry, site = testbed
    assert registry.lookup("stampede") is site
    with pytest.raises(KeyError, match="no registered site"):
        registry.lookup("comet")


# ------------------------------------------------------------ job API
def test_service_adaptor_mismatch(testbed):
    env, registry, site = testbed
    with pytest.raises(ValueError, match="adaptor mismatch"):
        Service("torque://stampede", registry)


def test_service_unknown_scheme(testbed):
    env, registry, site = testbed
    with pytest.raises(ValueError, match="unsupported"):
        Service("lsf://stampede", registry)


def test_job_lifecycle_through_saga(testbed):
    env, registry, site = testbed
    service = Service("slurm://stampede", registry)
    trace = []

    def payload(env_, batch_job):
        trace.append(("nodes", len(batch_job.allocation)))
        yield env_.timeout(5)

    job = service.create_job(Description(
        executable="sleep", number_of_nodes=2, wall_time_limit=10,
        payload=payload))
    assert job.state == saga_job.NEW

    def driver():
        job.run()
        yield job.wait()

    env.run(env.process(driver()))
    assert job.state == saga_job.DONE
    assert trace == [("nodes", 2)]
    assert "slurm://stampede" in job.id


def test_job_wall_time_minutes_conversion(testbed):
    env, registry, site = testbed
    service = Service("slurm://stampede", registry)
    job = service.create_job(Description(wall_time_limit=2))
    job.run()
    assert job.batch_job.description.walltime == 120.0


def test_job_cancel_maps_state(testbed):
    env, registry, site = testbed
    service = Service("slurm://stampede", registry)

    def payload(env_, bj):
        yield env_.timeout(1000)

    job = service.create_job(Description(payload=payload))

    def driver():
        job.run()
        yield job.wait_started()
        job.cancel()
        yield job.wait()

    env.run(env.process(driver()))
    assert job.state == saga_job.CANCELED


def test_job_run_twice_rejected(testbed):
    env, registry, site = testbed
    service = Service("slurm://stampede", registry)
    job = service.create_job(Description())
    job.run()
    with pytest.raises(RuntimeError):
        job.run()


def test_job_wait_before_run_rejected(testbed):
    env, registry, site = testbed
    job = Service("slurm://stampede", registry).create_job(Description())
    with pytest.raises(RuntimeError):
        job.wait()


def test_failed_payload_maps_to_failed(testbed):
    env, registry, site = testbed
    service = Service("slurm://stampede", registry)

    def payload(env_, bj):
        yield env_.timeout(1)
        raise OSError("no java")

    job = service.create_job(Description(payload=payload))

    def driver():
        job.run()
        yield job.wait()

    env.run(env.process(driver()))
    assert job.state == saga_job.FAILED


# --------------------------------------------------------- filesystem
def test_catalog_create_read_delete(testbed):
    env, registry, site = testbed
    cat = site.scratch

    def io():
        yield cat.create("/data/points.csv", 10 * MB)
        assert cat.exists("/data/points.csv")
        assert cat.size("/data/points.csv") == 10 * MB
        yield cat.read("/data/points.csv")
        cat.delete("/data/points.csv")
        assert not cat.exists("/data/points.csv")

    env.run(env.process(io()))
    assert cat.volume.used == 0


def test_catalog_duplicate_create_rejected(testbed):
    env, registry, site = testbed

    def io():
        yield site.scratch.create("/x", 1.0)

    env.run(env.process(io()))
    with pytest.raises(FileExistsError):
        site.scratch.create("/x", 1.0)


def test_catalog_missing_file(testbed):
    env, registry, site = testbed
    with pytest.raises(FileNotFoundError):
        site.scratch.size("/nope")


def test_copy_file_same_site(testbed):
    env, registry, site = testbed
    cat = site.scratch
    env.run(cat.create("/src.bin", 50 * MB))
    start = env.now

    def driver():
        yield copy_file(env, cat, "/src.bin", cat, "/dst.bin")

    env.run(env.process(driver()))
    assert cat.exists("/dst.bin")
    assert cat.size("/dst.bin") == 50 * MB
    assert env.now > start  # the copy took modeled time


def test_copy_file_cross_site_pays_wire_time():
    env = Environment()
    registry = Registry()
    a = registry.register(Site(env, stampede(num_nodes=1), rms_config=FAST))
    b = registry.register(Site(env, wrangler(num_nodes=1), rms_config=FAST,
                               hostname="wrangler"))
    env.run(a.scratch.create("/big.tar", 100 * MB))
    start = env.now

    def driver():
        yield copy_file(env, a.scratch, "/big.tar", b.scratch, "/big.tar",
                        wire_bw=10 * MB)

    env.run(env.process(driver()))
    assert b.scratch.exists("/big.tar")
    assert env.now - start >= 10.0  # >= 100MB / 10MB/s of wire time


def test_copy_overwrites_destination(testbed):
    env, registry, site = testbed
    cat = site.scratch
    env.run(cat.create("/src", 10 * MB))
    env.run(cat.create("/dst", 1 * MB))

    def driver():
        yield copy_file(env, cat, "/src", cat, "/dst")

    env.run(env.process(driver()))
    assert cat.size("/dst") == 10 * MB


def test_catalog_touch_and_list(testbed):
    env, registry, site = testbed
    cat = site.scratch
    cat.touch("/a/1", 5.0)
    cat.touch("/a/2", 5.0)
    cat.touch("/b/3", 5.0)
    assert list(cat.list("/a/")) == ["/a/1", "/a/2"]
    assert cat.volume.used == 15.0
