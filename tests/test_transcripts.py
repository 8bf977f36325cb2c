"""Golden transcripts: every suite's wire bytes and keys, pinned by digest.

Each digest is SHA-256 over msg1 || msg2 || key_a || key_b of one
initiate -> respond -> finish run driven by np.random.default_rng(0).  A
refactor of the expansion, product, rounding, consensus or wire code must
leave all of them byte-identical.
"""

import hashlib

import numpy as np
import pytest

from kcn import protocols as proto
from kcn.suites import get_suite, suite_names

GOLDEN = {
    "akcn-4to1": "b702a7f22099e09597cb49452521679d51aee617c3f4ff10d3a7e3dbebd8b1e7",
    "akcn-rlwe-16": "42d48994377641b96585cbc8356b8852dab1b2aefa40636c7088104ffffcc43c",
    "akcn-rlwe-64": "12ddaded0e74eb919ae84d3935dbaff5cca6e67055be28b3e57da86729013bf9",
    "akcn-sec-765": "556524ae4116aa2bf0a3d1086a7d9e1d0a6a182289d399d466c0763ddf413a92",
    "akcn-sec-837": "3ccc3c4f55b74355b9903e0378ce7842558b4cbb974f5eda900a31cc7d623636",
    "frodo-challenge": "27737f7a164a48511b9b5d79c687d39c7063674684d2f7e2dc08d3defede4190",
    "frodo-classical": "50f947a9b335a1c450c82d196992e8c28da5e13411d0f73afd124fcb9a7af443",
    "frodo-paranoid": "12fc0eb2ce1c382afe7cc89129b45f926c61accc7a9c71da5b2623e7385cf0b0",
    "frodo-recommended": "b658b8088b15983b23f36914331a3d881a3c44faacf775ea1a2932e4169611f9",
    "hybrid-paranoid": "43a739293a5bb4db7abf004d960e62abc6a7549b57514e13968525009326df26",
    "hybrid-recommended": "58766dade5987e1c6cde6ecddf7014e473be438c78426bc8f1cb0f4c6d196b87",
    "lwe-challenge": "980f00d8732e8e21d1fdd47a4341bd5bc5a2bea4de2368874c9709e4f9595ea8",
    "lwe-classical": "a60852d539365f093772ce1c6bb2d6fe8b22c0967533826a8f409ef1427d1a75",
    "lwe-paranoid": "200427e0d22d64621b7cac2c7add68524fe96e472b06b998cc3791aa28a063bb",
    "lwe-paranoid-512": "f87623e7e17234157f3f2f7df9446d8cfb04bd168fcae4dee1a4bfd7162effe2",
    "lwe-recommended": "fa6273484966f02ba2bad5b26b120420763983d5b52406c2b5b97e5418fddbe9",
    "lwr-paranoid": "a1c6e868d4cd283416dbf3ae8197f9fcd4483f08fd31475304bf304cf4dbca81",
    "lwr-recommended": "62a5bf634af235a3ec5b1baaaa94db3099ad377db9f3d30a04dc78edf0f07528",
    "newhope": "16692991c189db7f7e1734a5956293e0ade1bc91caadb18963bcb95c3165dd38",
    "okcn-frodo-challenge": "332540e8d1e76536275703c0217540d31f5beb246480e70fd40d1f380e2c8018",
    "okcn-frodo-classical": "9aa819dbe94d0ef536401411fa9d53ddd2b48827fa885d5a187ef99ea11ac16e",
    "okcn-frodo-paranoid": "174ce60dc3ba74dd67093d5c13e03f02414970c3e3c59618c6342f4575940685",
    "okcn-frodo-recommended": "cf57f6958735a4235bc2cf62781bc67f6bc97f45625aa7dbd41172b450293c9c",
    "okcn-rlwe-16": "0d9726ef162d50fb9fd82c72d3ed4d5475f6fa4355618e997c883f30dd82701a",
    "okcn-rlwe-64": "3bdaa3c87a35ebd6feb6d53a7a203c89c25d4c87ea04611761b56b5e63fa711c",
    "okcn-sec-765": "63b2c89836afbb041713b0b93a8f3faa01776d1d6437383bf6adb83396876aec",
    "okcn-sec-837": "4e19e4d2b9acbe766a1e1353764e07bd22bd644ff94a1c37e698d27158171940",
    "okcn-t1": "1d4ab65d24d0583592c0f60364209d8b3278e234833c47b7f95d2937a5bc76f9",
    "okcn-t2": "867eee34fe0d2863d8f7987d230c086783b2ead7b212127ce72c50036bcf0d91",
    "zarzar": "e658023749ff3e9320aeee3d45fc125fa6e2c3d71d7cf9a835b469f1e2c2a4b1",
}

# keygen once, then three encaps/decaps to the same public key:
# SHA-256 over pk || (ct || key_dec || key_enc) for each session
HYBRID_REUSE = "6b502df966ff7698bcde038d12bb4bc5a81265dbc90decddb10244e98b111269"


def _transcript(name: str) -> bytes:
    suite = get_suite(name)
    rng = np.random.default_rng(0)
    session, msg1 = proto.initiate(suite, rng)
    key_b, msg2 = proto.respond(suite, msg1, rng)
    key_a = proto.finish(session, msg2)
    assert key_a == key_b
    return msg1 + msg2 + key_a + key_b


def _hybrid_reuse() -> bytes:
    suite = get_suite("hybrid-recommended")
    rng = np.random.default_rng(0)
    pk, x1 = proto.hybrid_keygen(suite, rng)
    out = pk
    for _ in range(3):
        key_enc, ct = proto.hybrid_encaps(suite, pk, rng)
        key_dec = proto.hybrid_decaps(suite, x1, ct)
        assert key_dec == key_enc
        out += ct + key_dec + key_enc
    return out


def test_every_suite_is_pinned():
    assert sorted(GOLDEN) == suite_names()


@pytest.mark.parametrize("name", suite_names())
def test_transcript_digest(name):
    assert hashlib.sha256(_transcript(name)).hexdigest() == GOLDEN[name]


def test_hybrid_key_reuse_digest():
    assert hashlib.sha256(_hybrid_reuse()).hexdigest() == HYBRID_REUSE
