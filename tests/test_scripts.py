"""The scripts run at a small size and print the same bytes on every run."""

import pytest

from conftest import run_with_src


@pytest.mark.parametrize("argv", [
    ["scripts/scan_sequences.py", "--limit", "5000"],
    ["scripts/weight_demo.py", "--N", "2000"],
])
def test_script_output_is_deterministic(argv):
    runs = [run_with_src(argv) for _ in range(2)]
    for run in runs:
        assert run.returncode == 0, run.stderr
    assert runs[0].stdout and runs[0].stdout == runs[1].stdout


# printed by the expanding implementation, before the pair kernel replaced it
EXACT_DIGESTS = (
    "thm1.2:S 85854687ee030495207642fe6f4f01b232548fa020d55ff23736ec2cc79d200f\n"
    "thm1.2:Sprime 20636beb43758d7210730a648339dd03448f2ce375dec9b9172f8189cff5ccc4\n"
    "thm1.3:S 555c7147ce77bf80df166c4b08f7ab1136374b036235257490c334c478a6b1af\n"
    "thm1.3:Sprime c692f5f5de5ad257b57eee2203f72edd1b2103b5bdaaa4e21a46a62816c01486\n"
    "thm1.4:S 1695568b28f1d80521c3085cc73e70d748ed2cdb4d379aa4eb88809ba61e9a77\n"
    "thm1.4:Sprime 24f679b2eaf957169084d25864e1f7dfa0a536d2ea7c623369c08d79f11b46a0\n"
    "custom1:seed1 8a3a7a7f04699ff19bb52fb99654feefa6c18cfc23468f9f788b5d79d195c3a1\n"
    "custom2:seed1 708e370949b7705d366af060a2562ea0b8e1f809693aab5c3beaf598a22df04c\n"
    "custom1:seed2 5f8c38e2cf83891a0bcbc2a01c7642946875771cd4bf947189b449452c8fb006\n"
    "custom2:seed2 9e3291b1f7690af6bc7e05b482036e003987c6d2d6d7b8082f30d4167e5eb1eb\n"
    "sym12 09f2bcb8709f392c6fcfdee4ce6584eccba1d807a4702a79db31c39fcd2db753\n"
    "boxed f3d972c0837434905851f28826668934e92d3f541e7ae51f436a2287354c57d1\n"
)


def test_exact_digests_match_the_expanding_implementation():
    run = run_with_src(["scripts/exact_digest.py"])
    assert run.returncode == 0, run.stderr
    assert run.stdout == EXACT_DIGESTS
