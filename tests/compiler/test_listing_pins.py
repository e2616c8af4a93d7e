"""Pinned listings: the compiled programs stay byte-identical.

Each hash is the sha256 of ``compile_source(source, opt_level=L)
.listing()`` recorded in a fresh interpreter before the analysis cache
and pass skipping went in.  The workloads are compiled at scale 0.05
(-O0, -O1, -O2), the ``gen diff --seeds 5 --scale 0.02`` corpus at -O2.
All of them compile in one process here, so the pins also hold the
labels the compiler invents independent of what compiled before.
"""

import hashlib

import pytest

from repro.compiler.driver import compile_source
from tests.compiler.corpus import GEN_NAMES, WORKLOAD_NAMES, corpus_source

#: Listing sha256 per workload at -O0, -O1, -O2.
WORKLOAD_PINS = {
    "008.espresso": (
        "a1c1292f14696dc550d396d610b6619114a1048f6860a1fcd2a931c077e0f24a",
        "33d7da9752ccabf4c1ca5a73d381b2dd046c40a17d61f72944c17af8a2bf42e4",
        "adbad619929e10c249b16e6506342c2ac46797f67dc6f1b14cad05c5e6a23348",
    ),
    "022.li": (
        "90d897f01846327e550229bf59fcdc73aa8e711e86fcb1fb0f0fc99ede02d542",
        "153c52dd79061d7378b771e7fd5016b0b21cd03e3cc8af163dfee40fb87407ef",
        "69657d7becd7c5ec4fc93184ffcbb7b4d9004438d937b1ac824f1f607c1594df",
    ),
    "023.eqntott": (
        "8a056ee43bbea1fe76ec59e8ecdaa7a8aa2170ba61a4feb46ce07768ca95ef33",
        "5e00f6d2120faf8221ecc078a5dd4b78e6c89b3edec387c1989895aba4d8193e",
        "8e00e52df863fc049c08c5e9b80435c536b57d960c0720cbd929ed178d81a3b5",
    ),
    "026.compress": (
        "4416958f31a283b0137b97fb0a6aed1e17aec72833c5a3cfd26c8ba6df99e389",
        "6a34f9dd5ef790dd3e1c5b3186a055373e882b9a72a69fb412dbb29116285dc7",
        "7745098bd9070f6eff8c9a1dfb493d5ecb2e6d9aa2cb9ce9660ee0501261930e",
    ),
    "072.sc": (
        "f8507c85ab73a20a2b79053a30a32ed61029c38cce0edafe1a657becdffdfeff",
        "0dccbfc92b24668da347281f7cd06a4a685eac5aaf7aab315adcb84ad01c9fd1",
        "53ed84f4866d9205b5944e0253760734c131b2f80726c1380b40ebc4a741073f",
    ),
    "085.cc1": (
        "04eb4594943f09ff14b09497bafb80f477fbb47315f7e6241bda5154898ac3ed",
        "aa88a112a98d5688de1da306ddd8d26fc2148a6ba9a3e10eb75a98e63c1bf7b6",
        "b698a1d892cfc7c6ced5da680e67030be27dd6411f9480350e199138bb892e54",
    ),
    "124.m88ksim": (
        "f66c338957e8325ee20475b835c0f908a06bf9945cab344e89777e9e0489fb61",
        "ccd80f94f3bf92ba34a8588759146d18c90f9175b7d94dafe993d5847848dd24",
        "76c959de1a852a695def140f43f3629e56fb5035cc2334d3a8b9aaff6b7311b2",
    ),
    "129.compress": (
        "956691608f6a98a98f197ab383631c8b8ca4536a5e542a40ae324ca3748ebc71",
        "e3282fbe6921b30464a20cc15cc8b17cbf417cdbb20b1c9c3cb0e1c55f2e8001",
        "a94554a1baa758996fba4d66b2ec003fcce9f05cd5b415cee13eac34bad9fd66",
    ),
    "130.li": (
        "98295a54bb60ac7897310285adc4dfa7960c12e3e952b3c22e3741dd5719b03c",
        "e6a0e12bbc03ebc3283ddec72a0928bedf023b649ffeb299385712b9e30047d4",
        "d2b35dc0cd92642b4afd9782c7498b50764469867f185458888d74531d55b31c",
    ),
    "132.ijpeg": (
        "6456cb5a44eb1fa5cc4db47dc0896e5e8d6982998971a8463c8c14f505c832f3",
        "9c2bfdb1348be9fa123d61e6b8483da6539808616358ef6c0597f27a86a1e9ce",
        "cd27b301dbfc8659d7be19a41d8a413a71fbbda90d9c4c5a546ec3e0be8c348d",
    ),
    "134.perl": (
        "df3e6d8feb7070714118427bf0fb49866f1f47893695f3946fde1cb121c0e2ab",
        "f69162b02bc9745fd3fc5840f89fb0567a008b0f183c62dc6178a036a62defe5",
        "c5dac39a8cf435c102266711496bedf071069fea23bc421f1c248ffee1c82fcc",
    ),
    "147.vortex": (
        "750f5bd2eab54874509a50fe9ef784504194bb73f7e434a471dfc3514a31ccf7",
        "66f147a8e44b6f3ed58f88f92db95c8d5f5cb0a964367fe4150c87f547ce9050",
        "a16ea10765e54408df1667c3de58288572e993be7587cef2baa3b608d5a4943d",
    ),
    "adpcm_decode": (
        "27f42038f4998f2fd435e885f970e74d6b13f75280830d7f979b2a71337861e8",
        "1ac66510c4f72558c969718d34358b3c6e07d6708d8d28fae0f5786b9ce80575",
        "b09f9e9dcd38f3b9487f0f6ce1a3433beab7cae311b776170bd15a979abe436a",
    ),
    "adpcm_encode": (
        "9858f3eabfe7d9d86e8b87969d652de55afb9e5d11b8c0abe2d75d9d1c6655b2",
        "c213d85c540a52ea63d46220668d93efd086837555625460f0e71244f43bae33",
        "71773c297fbf5ecc3b219aabc901d2b36e232f4d127ef15009711b7d0312b35f",
    ),
    "epic_decode": (
        "dc866122745dfc2c196590b27f79955d1247935d9f5b6ac2ace7b5e6320b673e",
        "f19516a1f670b354b35791fe3f440507555c7b631f5298a0876ddaa49b914a17",
        "7ed7b717f794b642a95e8f93f3e6bd465574575f3f559a62743e6173c4076ed1",
    ),
    "epic_encode": (
        "ca59ea03eb030f60d5e3c39b77a91954536990e234a6e3631b107a681079fdb4",
        "4c69ca0b379093f9390337714ba219fca4aae4b8726de2f2c78263a97af0d871",
        "cdbe266bb9f4bbdd4590a267293dc8a6c32cf3b3cc145d87eab8d1544a0f350a",
    ),
    "g721_decode": (
        "341e208b7fbe7de94489575248578327be4a83e756a695a8a316de7d581e5d3a",
        "72940f83ab259d5551c0b2d2cf13ed6a2ee43ecc42ffd5be14dbb1c0dff3c7aa",
        "31f183ac8a7f8c9a901aa1bf77c058ef892efbe22ee88dc58fa914ec48d11f13",
    ),
    "g721_encode": (
        "0d81df91f6c2722aed1db13f0873ac466c9e0f3a53af054134807f6b739b4b95",
        "b15b01565e40110ce5b9613934a6a29231cfef12e4b0d25433db7c45e6e38893",
        "09a3aa31a71d0b2c7a87e5cf9ce080e1c7213d1c6102eab18b628ce209aed8e9",
    ),
    "ghostscript": (
        "47fd71821f83139c86fb2803d23cba16e2838bf613364fa37dc162bd582378f0",
        "a21bedfbcea77207ccbbd9d8e81e7036e7a54cf3bd728f5a44ffec06aa9ffdca",
        "23b3e04a7fbf8ea6476ad9c0776e0692236a7861377b03dcd8148ec7cf02d8f4",
    ),
    "gsm_decode": (
        "90244b7fe925abfd6216d616c8503538a51bb276b2894a3827ef2c204675f183",
        "3d2f86d08fafa063db6c79ee1551fe55588312be46c82a2e4f1525083664c747",
        "900e80e35637ef91737b172430e0dcbb94430473435f28d953518585084f9db2",
    ),
    "gsm_encode": (
        "26f9001b266b98b255b4f1483d8b9e81e27bcff49ea80d26206fd7790fcd4824",
        "779a05961234c00b35dbd9f82731622352bede6e25c9e8014c860713814b8475",
        "38c00d0ba6e7e2193b77ed2fe098c6a63b41d37f6fc0f9d38182f481a8afd597",
    ),
    "mpeg_decode": (
        "7a54ca16f8df00918c5366f811e1aff01abac7b5b5eec4c0f8a0ebd2872afac7",
        "f877e1bb48d9b75d324584c2c0640b4ce5dff17635c450d27ef2062f7b3b90a0",
        "641ed3378c9bbac45950fbb73367be1db0a682711f4c33328b2b6627bd6123f4",
    ),
    "pgp_decode": (
        "7c9d8cb5c21e6abfa1caa2a1d7dad8417386a07e43aecf4ee3a05741215f11a0",
        "b53f3fb0d1f7170f650716f076afd43e2a7740cadb0cff2a368a214b5893b92f",
        "3858231b16266db405f6dac31b8d81c1ae7f89d1db21bc340527b0512d7b1c42",
    ),
    "pgp_encode": (
        "d9de49a061f056f5681a7de99a901e753713b7b01020f401859f1f58f731157d",
        "6f554139ae4dc39fc9decec494184a8f75b60df1413272001e542a673e95cb71",
        "66fac0dc2bfd58779553394a095b3e7fc8d9a186e134216e0f59dfaa914b6b2d",
    ),
    "rasta": (
        "1cce16988eefeb2aac06cca49a91b52af5cccae384f95921ba3389d6dafd1e71",
        "71db74b2475cb9657e21ee4d9bd82075fa430504586786edf851db701664e03e",
        "563a868493542894a31dfcf503d9d53562a7c0362be8cc66e84d85de413113cf",
    ),
}

#: Listing sha256 per generated program at -O2.
GEN_PINS = {
    "gen:irregular:0":
        "d06b80fe9486acb9dc74ed79a3b06be5737b1df11fb95cf06e81e6a28bec2980",
    "gen:irregular:1":
        "2b9a0565377a136d5e88b9e1440fa3ba5c24a85f005ccbaef184db953fbe03cf",
    "gen:irregular:2":
        "4eb32939519bc029d9b1f37df5b110697267a00c5f911c94f4f9ff796c57e78c",
    "gen:irregular:3":
        "caaf64a99928353beba3aa8ea244ecafad5633d65fc8a5c0db1004d2a4b6f37f",
    "gen:irregular:4":
        "ce222c9b83c26ede32e6420a03f6ccc224fd3f9a75edcd5a058768396c57497c",
    "gen:mixed:0":
        "bd566e67a4505ceec484ebe87275309619e41271d031a8d10380886b6474619c",
    "gen:mixed:1":
        "c39ebbd7064b515c7cfbf6291938d2890f259069ee3c6c0d45349b16d70bf86d",
    "gen:mixed:2":
        "9fd497ed21270f3001c8f78df3204a2f8e644f6efa233317bbe91c337854f18d",
    "gen:mixed:3":
        "99ac03bbe903fb4060e592c7a4561cb4df3c2212ad9f7cab39a15c8ed0b6ccec",
    "gen:mixed:4":
        "e6a062aeefa3834a4c535ee36e9d72ea6237cc05d94456451146e529ae855795",
    "gen:pointer:0":
        "d15e37c63c14a730771478e6a2393a536eda3c735f0fb80906daa826695c13ae",
    "gen:pointer:1":
        "cf50d7ed876fe16b832997ade6b35aeb42fe5f2a8dc3bdea5c830286077ee03b",
    "gen:pointer:2":
        "7bd5b2f80243222400b35276029f95278cfd65a8cfdc96e0f37744deca60cebf",
    "gen:pointer:3":
        "1780213efcc9db4b0d6146e9e968c17247a5f6f9c7fdcce12d8933c4ee0ee196",
    "gen:pointer:4":
        "c903b508f8df41f39f4f07ca76234f23757acf5095188fde3ede4478f7ce721a",
    "gen:strided:0":
        "b3f6d8d935479632067b87ac498ba7114f2d00eab6a631d3f0eba60f93ad5844",
    "gen:strided:1":
        "54d048b3925ece181b296f8fad373dc011cce22f7e8fe42248daf81828fa01a1",
    "gen:strided:2":
        "ad0c90b4c6cd1429683c4a6acf164bc4db5aa823f74f37b77c2d05455b23d0d9",
    "gen:strided:3":
        "a68b50040544ea1ccc9ad2493084a17844ff8a51ec86921d24bd2086586493a7",
    "gen:strided:4":
        "10d569a650394e0a9faa4c1e52f4f8069336fd53bcd38e5a3d11ca5a60393a01",
}


def _listing_sha(source: str, opt_level: int) -> str:
    listing = compile_source(source, opt_level=opt_level).listing()
    return hashlib.sha256(listing.encode()).hexdigest()


def test_pins_cover_the_corpus():
    assert sorted(WORKLOAD_PINS) == sorted(WORKLOAD_NAMES)
    assert sorted(GEN_PINS) == sorted(GEN_NAMES)


@pytest.mark.parametrize("name", sorted(WORKLOAD_PINS))
def test_workload_listing_pinned(name):
    source = corpus_source(name)
    got = tuple(_listing_sha(source, level) for level in (0, 1, 2))
    assert got == WORKLOAD_PINS[name]


@pytest.mark.parametrize("name", sorted(GEN_PINS))
def test_generated_listing_pinned(name):
    assert _listing_sha(corpus_source(name), 2) == GEN_PINS[name]
