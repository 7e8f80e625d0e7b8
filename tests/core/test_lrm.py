"""Direct unit tests for the Local Resource Managers."""

import pytest

from repro.cluster import stampede
from repro.core.agent.lrm import (
    LRM_TYPES,
    make_lrm,
    nodes_from_environment,
    render_hadoop_configs,
)
from repro.core.description import AgentConfig
from repro.rms import RmsConfig
from repro.saga import Registry, Site
from repro.sim import Environment, SimulationError
from repro.yarn.config import YarnConfig


@pytest.fixture()
def site():
    env = Environment()
    registry = Registry()
    return env, registry.register(Site(env, stampede(num_nodes=3),
                                       rms_config=RmsConfig()))


def test_nodes_from_slurm_environment(site):
    env, site_ = site
    names = [n.name for n in site_.machine.nodes[:2]]
    from repro.rms.slurm import compress_nodelist
    nodes = nodes_from_environment(site_, {
        "SLURM_NODELIST": compress_nodelist(names)})
    assert [n.name for n in nodes] == names


def test_nodes_from_pbs_nodefile(site):
    env, site_ = site
    names = [n.name for n in site_.machine.nodes[:2]]
    nodefile = "\n".join(name for name in names for _ in range(16))
    nodes = nodes_from_environment(site_, {"PBS_NODEFILE": nodefile})
    assert [n.name for n in nodes] == names  # deduplicated, ordered


def test_nodes_from_pe_hostfile(site):
    env, site_ = site
    names = [n.name for n in site_.machine.nodes]
    hostfile = "\n".join(f"{n} 16 all.q@{n} UNDEFINED" for n in names)
    nodes = nodes_from_environment(site_, {"PE_HOSTFILE": hostfile})
    assert [n.name for n in nodes] == names


def test_unrecognized_environment_rejected(site):
    env, site_ = site
    with pytest.raises(SimulationError, match="RMS environment"):
        nodes_from_environment(site_, {"LSB_HOSTS": "a b"})


def test_make_lrm_kinds(site):
    env, site_ = site
    config = AgentConfig()
    for kind in ("fork", "yarn", "yarn-connect", "spark"):
        lrm = make_lrm(kind, env, site_, config)
        assert lrm.name == kind
    with pytest.raises(ValueError, match="unknown LRM"):
        make_lrm("mesos", env, site_, config)
    assert set(LRM_TYPES) == {"fork", "yarn", "yarn-connect", "spark"}


def test_render_hadoop_configs_contents():
    configs = render_hadoop_configs(["n0", "n1", "n2"], YarnConfig())
    assert set(configs) == {"core-site.xml", "hdfs-site.xml",
                            "yarn-site.xml", "mapred-site.xml",
                            "masters", "slaves"}
    assert "hdfs://n0:8020" in configs["core-site.xml"]
    assert configs["masters"] == "n0\n"
    assert configs["slaves"] == "n0\nn1\nn2\n"
    assert "yarn.resourcemanager.hostname" in configs["yarn-site.xml"]
    assert "<value>n0</value>" in configs["yarn-site.xml"]


def test_yarn_lrm_scales_config_with_cpu_speed(site):
    env, site_ = site
    base = YarnConfig(container_launch_seconds=12.0)
    lrm = make_lrm("yarn", env, site_,
                   AgentConfig(lrm="yarn", yarn_config=base))
    # stampede cpu_speed is 1.0: unchanged
    assert lrm.yarn_config.container_launch_seconds == 12.0


def test_fork_lrm_initialize_sets_nodes(site):
    env, site_ = site
    from repro.rms.slurm import compress_nodelist

    class FakeJob:
        env_vars = {"SLURM_NODELIST": compress_nodelist(
            [n.name for n in site_.machine.nodes[:2]])}

    lrm = make_lrm("fork", env, site_, AgentConfig())
    env.run(env.process(lrm.initialize(FakeJob())))
    assert lrm.total_cores == 32
    assert lrm.setup_seconds == 0.0
