"""Generated circuits are pinned byte for byte.

Every route here starts from a synthesized circuit, so the generator's
output is part of every routed result: a different draw sequence would
silently change every track count downstream.  The table below was
recorded before the generator was last optimized, and must pass
unedited; a change that needs to edit it changes routed output, and
must also bump ``repro.exec.cache.CODE_SALT``.

Coverage: every MCNC-like spec at scales 0.05 and 0.2 with seeds 0, 1
and 7; at scale 1.0, three seeds for primary1/struct/primary2 and one
seed for the five larger specs.
"""

from __future__ import annotations

import pytest

from repro.circuits import mcnc
from tests.circuits.fingerprint import circuit_fingerprint

#: (spec name, scale, seed) -> SHA-256 of the generated circuit.
FINGERPRINTS = {
    ("primary1", 0.05, 0): "cae0c5cc6b0c349127ab6470ed7da24a9d943d1bbc3e08f702e39a287a9f5efb",
    ("primary1", 0.05, 1): "fed7aad6a3373530ce61bf7707e7ddd41de1f15502c72240818642a34e332754",
    ("primary1", 0.05, 7): "94f608cd9d9af84f954372d4a503a0c5b9fe8a877b8bb8f9255f98aa989d2ede",
    ("primary1", 0.2, 0): "3412b04fbf8dcfaf775923c3b6c6d75c50b6a3ea0dd73132afbb2a5f09c89201",
    ("primary1", 0.2, 1): "0e3df23e392eb3aa4cb0e883d685f0a3649530ee66d520f2693e9feb06db5be0",
    ("primary1", 0.2, 7): "8d44cddf6990f3b2662711878c666c562c55eb27ba57b71b1eb91882695d57d5",
    ("struct", 0.05, 0): "c9658abf30a20cfb7d075d3cc28ab681fa90f3a54fa3ca98df416a6c2d426a09",
    ("struct", 0.05, 1): "3506846bd54a17528c0a5d6b9524bb7d34b2f0774b440758197fcbfa390ffcde",
    ("struct", 0.05, 7): "270ac6835fc809847b23b495ec78e64cb58dc526d85a1837861e236c8d5223a6",
    ("struct", 0.2, 0): "9ff1f3dfc13610e248f481934236b195a20e77613c1139ad5474c4a99f647351",
    ("struct", 0.2, 1): "6a46031aa42538c16bd8a7f6dc443bcba9cec1c5266df19db900f44a231ef1f2",
    ("struct", 0.2, 7): "2a421c78ae424fe8f36bf69229f1c03c3332e5e80a0403b7983cd59a3d5a0365",
    ("primary2", 0.05, 0): "267b60f7faa5fcb98e8671aff1fe434bfacc73bb83d861692c12a391b860f216",
    ("primary2", 0.05, 1): "d48860841753a9b5c30a7c1969e1caf8824802f1dcc8b493c66d44256d849e25",
    ("primary2", 0.05, 7): "105afb12c834db08523f09195804888e2e64ec7f3e52fa0b6f0e7aae2b585bf7",
    ("primary2", 0.2, 0): "beb54000cdb06f389d3d538050a72363a2f850b78b2a42b6197f68b3a26a6540",
    ("primary2", 0.2, 1): "4de606cdaf72e95cb3f3989523a162ecdca7e50e1f1f8f300a3a2b7e03ec2e29",
    ("primary2", 0.2, 7): "e68e132b4cb1ebe853fbd984ef1f44d041b04d25c06141964b25bb95b95a1f38",
    ("biomed", 0.05, 0): "273c472624a01d307a4341f8912110ffbf9a808767568be70f344109c5aa7137",
    ("biomed", 0.05, 1): "0cb0167bb2b83d0f3f49c67de3049586c0f36fd687828c5dced319cc0deac8c5",
    ("biomed", 0.05, 7): "277eda9ca207a063feb2961d98d2c3b7ce65e3b6ab6fa9daa8524283400968b7",
    ("biomed", 0.2, 0): "bde8b8a45bea603a453d573fb6196fc4deab1d02dd1ef5b102272f258530f50a",
    ("biomed", 0.2, 1): "83044c8b96cbe85589203a5f4aed2a8a038eeba1d6cca47cbc2e2693a98c6adc",
    ("biomed", 0.2, 7): "ae959bcf6ea68987d6d30116606d014f7a63c6445bbc83ecb8472117b8a35ba2",
    ("industry2", 0.05, 0): "e81fb4f953456299681949d8fb1b17417e9aff65f4551ad528962503e1d26b48",
    ("industry2", 0.05, 1): "6cc10411f22ba6a9e1291791508ba995e5c83541b8d37defb7d8a2f596888bc6",
    ("industry2", 0.05, 7): "0c3ab79409cf19e127dba3ddaa00f59e1cb1780047168040a0c3f5d38ae56913",
    ("industry2", 0.2, 0): "bb56e21fda04b2356b797de9dc431df45aa53737e96387c0606d2590a566bc43",
    ("industry2", 0.2, 1): "3a060850a8df89077dd1aa60e08b3167c244a2116d89f3e9ea515500923a6685",
    ("industry2", 0.2, 7): "2eceb4b1a2caca5497fab87a70cb7e1c0c2100c2b37d21e4e500346422f705ba",
    ("industry3", 0.05, 0): "f583241aa97ebcc7745108a24cf4f9a94aed9f013d2838a4fae4a1cb1f8a4823",
    ("industry3", 0.05, 1): "a603d62d5282eb222d6655c9f7a96abdb027c4612394ba5cccccf946996023c6",
    ("industry3", 0.05, 7): "97d2c6df15d4aa69196f8c6d59b8e3624eb4473f2571961f030873f5f262ae66",
    ("industry3", 0.2, 0): "d1cf8d434035e21700601c4b3b08a6ea128a563b02ecd67cf547221a7f03a9a0",
    ("industry3", 0.2, 1): "6bb3a030d2c0128c218082fb50ff3e593d025aa1516de75029d0fcb397c57432",
    ("industry3", 0.2, 7): "1a7b58e3ddb829d18e52e32ad50f754273018fcca7990d438f5c4bceed620213",
    ("avq_small", 0.05, 0): "ecfa622aae6c2b17a652736e907c750e106f32434e0bd562e0312f1bf5c46811",
    ("avq_small", 0.05, 1): "95c87e310b480ffa30eaeec4617efce82207c7d12edb634d7e8cb596b3d874d0",
    ("avq_small", 0.05, 7): "d4db0b420bd0d4a2e98fba82e5e9ac405505f2843ceaac254501ac9a886e7670",
    ("avq_small", 0.2, 0): "6ae61d0baa9452795db582414762fe775b7935c2703a9adead33380fd8427844",
    ("avq_small", 0.2, 1): "25de3d25f98f20efd7f00ae252e0cf679ff3e6cb59baa4a87aa7b280d45d10a9",
    ("avq_small", 0.2, 7): "c4a3bb175a316f8fd677ade3b3053f3c3f199e390819a1cca3b9c680a8a982aa",
    ("avq_large", 0.05, 0): "385b957ed00e5b8bf827a3888a3b10c0f760d8b3f198427438fb5c726f5eba98",
    ("avq_large", 0.05, 1): "6f11675b4343029a2e852c1a98f8ed8a1cbc6e81cb396d4621fbcca399b18c57",
    ("avq_large", 0.05, 7): "b3d4836dee1f3de7c96fa281bd599f665e8638ce49e86927ff963c385d258d31",
    ("avq_large", 0.2, 0): "1ea60e872a82d7e3f4e14aec9c1ad4552d4563b75856d54864d2e35eb099c955",
    ("avq_large", 0.2, 1): "e015e946c5e82d1e4f5da785d20a28523e90f14bdd332f0214d8c38b5436bbb8",
    ("avq_large", 0.2, 7): "44d623e6bd52f8958fada62e40a12c66c6f55f226415b2d9c9dd73f258b43be2",
    ("primary1", 1.0, 0): "fe8d52b446938cd5bc13afa56a2efb7856e16eb38db18e335f3dde2cb16baff5",
    ("primary1", 1.0, 1): "6f7b6ffe04c01dec8f03aafee7039ef488736cd7e0a6b5391c9d13b8de1d742d",
    ("primary1", 1.0, 7): "23b66501835058aa985b7d4b4bb395f7ae2b56822e83de31590b20aede25e028",
    ("struct", 1.0, 0): "e25ba1e1edb73dfccf619291166fc9d920f859bd5673b9edca7df8cb5d1bd169",
    ("struct", 1.0, 1): "727fa0b91a5158ac2ac6e57703278d2737a1a25e246435118eb14af79c9d661a",
    ("struct", 1.0, 7): "885c4c6fccdbe4c2a775dfafd02f75f0d01a95ab8aa1fe7370aadebfb96aba3c",
    ("primary2", 1.0, 0): "09804e1542458fafb4b7d5bda19caf3d32fc8cf09979ad5fbe6dcb014fc475e2",
    ("primary2", 1.0, 1): "6ff8b7a6234a35b6179208b0961af499f3a0d94c30185fcc610324bee48888ad",
    ("primary2", 1.0, 7): "97ebbc66384cc308c5b63546f43a10aefd84955d4792503dbc886e02bbd86d3f",
    ("biomed", 1.0, 0): "3622cb1e8db2fe8143f437031fb27c53ce6d666a43e73d2b62c4c5cf48c5f2b0",
    ("industry2", 1.0, 0): "41b3f22a0d9e922902b56dc049ce5bddbcadce90d4c17c9fd2b3a700c86b1b99",
    ("industry3", 1.0, 0): "534073ca7db8d6c1360928336ff8902b4fb25a8a32d005103b1744ce20be7b4b",
    ("avq_small", 1.0, 0): "b7f734478f7c8b17a236705c148e5ae9cace2498e2b0f7c94a8ab9e89ad27a56",
    ("avq_large", 1.0, 0): "8311719eef59c9b2ff0dd54836ff62751cbd1e6126d64eeef3f8cd78fa32cb17",
}


def _params():
    for (name, scale, seed), digest in FINGERPRINTS.items():
        marks = [pytest.mark.slow] if scale == 1.0 else []
        yield pytest.param(name, scale, seed, digest, marks=marks,
                           id=f"{name}@{scale:g}-s{seed}")


def test_table_covers_every_spec():
    for name in mcnc.SPECS:
        for scale in (0.05, 0.2, 1.0):
            assert any(k[:2] == (name, scale) for k in FINGERPRINTS), (name, scale)


@pytest.mark.parametrize("name,scale,seed,digest", list(_params()))
def test_generated_circuit_fingerprint(name, scale, seed, digest):
    assert circuit_fingerprint(mcnc.generate(name, scale=scale, seed=seed)) == digest
