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


# printed by the expanding implementation, before the pair kernel replaced it; the
# delta and basis20 lines by the Fraction-valued outer form, before the integer sums
# replaced it; the grammar line by the SymPoly-building parser, before parse_poly
# moved onto int numerators
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
    "delta 6b9aa197c590fd1379a48184134d963b714d963e7149e56231a7cf28d8961224\n"
    "grammar c9ef0321aecb981630212e6bb78e9e88384af3d431bd233e289f0a29169f6013\n"
    "basis20 10281e9f670d355874df86f24dcc45003b128cd7cf4c333f4661d4d557ebd264\n"
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


# printed by the two-parser CLI, while RunConfig merged the config file beside argparse;
# the last line by the one-process Monte Carlo fill, before a forked child took half of it
CLI_DIGESTS = (
    "verify:thm1.3:text c02631a3b31b3b17d50f376504d9b454672670d2fe2e8709dfce9d47dfdb2e49\n"
    "verify:thm1.3:json f51d865384f60eeb8c1be5f2d3a7b548bdbfe88e05972558c2c6ce00d263d061\n"
    "verify:thm1.3:csv a7f7fe116a5a8ece0d9813a2a76afcd76af90edb06be41358ff713e1a1bdad45\n"
    "verify:thm1.4:text 2c94e70f1b657452f7ccd1e1b0800f6526884ba49c628c742b1c1a0c29b61da3\n"
    "verify:thm1.4:json 1c51875c55af9cbf4dfb28ff6ba5d23d817c357b2bdd0e275e12c40d07eb75fa\n"
    "verify:thm1.4:csv 93e3e5538a154cfd341c8fd34e4bf9c4609404a98e12b9d5a4d8dacc682ee43f\n"
    "functional:custom:text 5959fc552da7568fbf4dbcbd2c862f27054dfa9f37c4d3c9f5ed12aaf71b379d\n"
    "functional:custom:json 47ef913de5b08cb12e5ad1825eb3bbf6490dc1fbe0bc3b87127c3be82e6c6cb5\n"
    "functional:custom:csv 37767c7ce5f4996beb6cdbb5a07f77a0405cdd75d8df29eda21c7fea60684ea7\n"
    "functional:thm1.3:text 4855ba1415519cba6acb7e96633ca104cf543bd9de117c6f84fe3ace8e279e02\n"
    "functional:thm1.3:json b83b2409f4cd02bc50df12669ea4881f6c02cc3523717a2485143aec04be6dc0\n"
    "functional:thm1.3:csv 385027c89752fa995a2b69efc471378ca696d96faa76fac233fa485fabc7f44e\n"
    "scan:gaps:text 717ce00b4159695bc580d829e7ae41ae9951c58dec9bffb828404d7ac0b3c886\n"
    "scan:gaps:json 1e89e2fb366f1facb5acce821328c399aa37e7da31ba8a3a3a015417b909af29\n"
    "scan:gaps:csv 1090681f26cfb122f6805b4da7597781ba4c8b358ecbd5e610318ce4ee9ef210\n"
    "scan:hits:text dff4ecf278097544d888d6c4fb2966991c65642b9f796f0ab4e93f536339fd0c\n"
    "scan:hits:json 73016aeccc6159f2bc5cdc3f6c3d7144d8da79c4eedc349f2b48a2d9ec146d4d\n"
    "scan:hits:csv a9ca439fa55035d02a77681b44b749ae897568091e06f5f4a0ffd3da20d6ae17\n"
    "scan:bv:text b13f5aab392c176589875c1212da98ee1427abb32dfd4da90e73a188cd7eb109\n"
    "scan:bv:json 09490d0846f9d0cd51982d8b3920592129a2a7836ce157372557db0d0004eb34\n"
    "scan:bv:csv b2b5580b0d5cb2ded9a4c32ca9b65b20c0200e9ad36b1f740e23ca0ee5885149\n"
    "theorem11:text 7b93bc8dffa22390f74bb5f1ffe70ccaa607187aa17a5e517646a28dd09a276c\n"
    "theorem11:json 672c7e83e44683eaf94cbe8a7f6f7507f96a10a80a3450a3b77916e3ba37892b\n"
    "theorem11:csv 13608f8666d23a7abb28bceee445a16303ae29baf8292375cf9c674d2d6ad29c\n"
    "verify:thm1.3:config f51d865384f60eeb8c1be5f2d3a7b548bdbfe88e05972558c2c6ce00d263d061\n"
    "verify:thm1.4:config 93e3e5538a154cfd341c8fd34e4bf9c4609404a98e12b9d5a4d8dacc682ee43f\n"
    "functional:custom:config 47ef913de5b08cb12e5ad1825eb3bbf6490dc1fbe0bc3b87127c3be82e6c6cb5\n"
    "functional:thm1.3:config 4855ba1415519cba6acb7e96633ca104cf543bd9de117c6f84fe3ace8e279e02\n"
    "verify:thm1.2:mc-split 99ba6fc9eb8f1d9e1fdd5245f819ff7d88e712d7bd6f80048bba23d65216733f\n"
)


def test_cli_digests_match_the_two_parser_cli():
    run = run_with_src(["scripts/cli_digest.py"])
    assert run.returncode == 0, run.stderr
    assert run.stdout == CLI_DIGESTS
