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


# printed by the cofactor membership masks, before they marked prime products
DESK_DIGESTS = (
    "gaps 52176a54d26fa0bc8e7ee160fd4275a09d9b3567f72d0ae0019b70be8ee30d51\n"
    "hits:seed1 ff25b96d9e19bff574a6043a6a366486a97761b3f192d3e825bf139213e7315c\n"
    "hits:seed2 fd68dd9440e49944e5f9df6405d2d2bc4c3ed465f33572508ec640bb4c494f0e\n"
    "bv:primes eb63092b2f739c32e36ed8eada3c04f9b11d6734381d3cccedbbb175cb55a7c8\n"
    "bv:beta 16da16a103fd0e9b4d51e5041235c4f1f20355813a091348a07ba5465df4a996\n"
    "E2:100 54ad8da953536aebbd01da343ca9e4ed0c3dab29f2862d9dc5180892d336d35e\n"
    "E2:3000 e788ede180c5cb22c0883406054053c63c7ad8a8dd7ea2495a766957c46e2259\n"
    "E2:1000000 a36f479c0359c28e73ce4b2a8f88be73ced30f2af107180eb414c02564a19a5e\n"
    "E2:1000012 8ff94ae55d3b0ebc45ba8401cb55fd777d289bb04ee19f7a0990d7d665267570\n"
    "P2:100 404da8e545ea777c37eca6c8d72c3e8cad1061ff186498e49edcc0481affc2ee\n"
    "P2:3000 329ba7a4b2cddf16bba3d83e24047b572a2fd5b2c745f8f3bfd9765200c814c3\n"
    "P2:1000000 2b2d9c4d86cb604248cfd2993e470a2d9efd3e5f6376a29c67948b3ba125003d\n"
    "P2:1000012 d5db76a323d084f4bd5390fbb62601ab617a117f91a407ef0d7144b49e7eb821\n"
    "primes:100 17d3bf5e29341bb9870b9e22271a66f2a496116bb5a785e004b08c5d94b540c1\n"
    "primes:3000 384dda384dbf4ab31dd988d33d46794654db5aa8795c1ce54a77d2fe507da628\n"
    "primes:1000000 1d8537de67d9eab4b2208f2efd3a137552d4c37d68c93a867c992df240189180\n"
    "primes:1000012 c20a39237380a6263de41b3ef1c6bab45d1dc6cc4341c21e94eee7c87c661231\n"
    "s_sums:k2 cb317609b7466eeed84354fb9dccbe470b327005b6b16c6d8e78fd92ef213d4f\n"
    "s_sums:k3 0ed49ed825065c487170a9eb60149c23b7650247fd86a3634cea7597aaf5e6e6\n"
)


def test_desk_digests_match_the_cofactor_implementation():
    run = run_with_src(["scripts/desk_digest.py"])
    assert run.returncode == 0, run.stderr
    assert run.stdout == DESK_DIGESTS
