"""Bit-level pins of the two-line assembly: ``exact``, ``two_term_*`` and
``leading`` on a grid of rays.

Each pin is the sha256 of the ``repr`` of every result on one ray of one
model, over all five events and K in {1, 4, 12, 40}: value, terms,
constants, cone and the whole diagnostics dict (``closed_form_delta``
included).  A call that refuses contributes its exception type and
message instead.  So a rewrite of how the pieces are assembled must keep
every float, every key and every refusal as it was.

The rays (aK, K) cover, for p = (3, 1), the x1 = 0 axis, cones D0/D2_hat,
D0/D0_hat (one of them the Brownian boundary ray a = 0.6), D1 and the
lower cone; D2 is empty for both drivers.
"""

import hashlib
from functools import partial

import pytest

from ruin2d.errors import Ruin2dError
from ruin2d.models import CompoundPoissonExp, StandardBrownian, TwoLineModel
from ruin2d.twodim import RuinQuery, exact, leading, two_term_and, two_term_or, two_term_sim

MODELS = {
    "cpe": TwoLineModel(CompoundPoissonExp(1.0, 2.0), 3.0, 1.0),
    "brownian": TwoLineModel(StandardBrownian(), 3.0, 1.0),
}
RAYS = (0.0, 0.2, 0.5, 0.6, 0.8, 0.95, 1.5)
KS = (1.0, 4.0, 12.0, 40.0)
EVENTS = ("OR", "SIM", "AND", "LINE1", "LINE2")
TWO_TERM = {"OR": two_term_or, "SIM": two_term_sim, "AND": two_term_and}


def _outcome(call) -> str:
    try:
        return repr(call())
    except Ruin2dError as exc:
        return f"{type(exc).__name__}: {exc}"


def _calls(model2, a, method):
    for K in KS:
        x1, x2 = a * K, K
        for event in EVENTS:
            if method == "exact":
                yield partial(exact, model2, RuinQuery(event, x1, x2))
            elif method == "leading":
                yield partial(leading, model2, x1, x2, event)
            elif event in TWO_TERM:
                yield partial(TWO_TERM[event], model2, x1, x2)


def _digest(model2, a, method) -> str:
    h = hashlib.sha256()
    for call in _calls(model2, a, method):
        h.update(_outcome(call).encode())
        h.update(b"\n")
    return h.hexdigest()


# (driver, method, a): sha256 over the K x event grid of that ray
PINS = {
    ("cpe", "exact", 0.0): "e5688835259728e7a44a54d3bddc947f640548065ce8648d9753744d7fb25f5b",
    ("cpe", "exact", 0.2): "1acf67f16f927d061614b84ef776312c07ac588e5d6e3cee7e6a8243bb497609",
    ("cpe", "exact", 0.5): "0aff5dc8700652007b53ce9b81536b920b9faf56560ef05455afab1acd97a432",
    ("cpe", "exact", 0.6): "fa7f8a8e4f70cf2ce40af619a513afa2e520192e03d65127d60b8db5e13a6aae",
    ("cpe", "exact", 0.8): "4c953db0ab972dba3fb798b46c11d5f2f5ecb9f92f52e0bca525532a25612843",
    ("cpe", "exact", 0.95): "072b4da219e12860b15a2ce2b9b711afc8e1077bc3c295e2f7425b722c7ea24a",
    ("cpe", "exact", 1.5): "70139843121486aa7ebebc0016c9f36e7e111b3a281dbfce80dd376d014af0ad",
    ("cpe", "two_term", 0.0): "1877bc0ec34196757581201e45f8456853437666ea4398e0eb54ef260909357e",
    ("cpe", "two_term", 0.2): "c73cf7bac89ac960cb784ca5edbeed603fdfaa8fabc01103eeaa1af8186bdba6",
    ("cpe", "two_term", 0.5): "c8a1e87d07855e76e308791d0884c4dc4981f435d40ed891b0c141d54c58c51f",
    ("cpe", "two_term", 0.6): "ec44b30104bba6827750034f957cf1d4a17757790b57cf87004e6057ef130942",
    ("cpe", "two_term", 0.8): "7b99aa7cf962c925ed854f4e98007c3801146b6ee7cd498d423e864d0218f67d",
    ("cpe", "two_term", 0.95): "bfdd9a8c14f5ee0154049d9e18038fe49f35d6738285f8157b7a83fd52473c4f",
    ("cpe", "two_term", 1.5): "e85068acbf60e05d4434d5e020fcac5b6050f813b7ce7e0377568c7bae791fa6",
    ("cpe", "leading", 0.0): "d604c8a554bcbda168ac997c39dfe36c5696dc85e29472eb3cbaa26fc95c9067",
    ("cpe", "leading", 0.2): "fc3faf8774f0f0720579590a82d1af623e133b7151af7549dc90879d19101c36",
    ("cpe", "leading", 0.5): "19197631bc6b49f3e40598bc0c715a08fbff9ea6f5e56ff41b264d571e5a49d7",
    ("cpe", "leading", 0.6): "fa75e4445c77638068f7770202714c4d9afca452a13f0154165ca271bcfba4b2",
    ("cpe", "leading", 0.8): "991d857523ef282c3349c668f9121156390fa8b1101b0eff2b08f8cde8921764",
    ("cpe", "leading", 0.95): "0d71b4b4044a94e6c722d84ae2a5ee97965022a5ba3ce269deeafaf00116ca49",
    ("cpe", "leading", 1.5): "ad3d5dae9094c1b3e16e277baf243f2d119f958744e939c682d478bb8aab02c4",
    ("brownian", "exact", 0.0): "d423cd6cbc22bc4f328dd7d367587e1bab207867741a3c20999cbc246eb23ca3",
    ("brownian", "exact", 0.2): "a499548afe913555e03649ada80e282ab3de4d5da9ed507171c32a64d580275f",
    ("brownian", "exact", 0.5): "7c805bbd0ba166e1a3c942f82f496eda2f90865a3ad7204caa2fe63c16ce445e",
    ("brownian", "exact", 0.6): "a4b6beed31c6fdee242849148dc6ad71cf06874512a07865cf14c4edba67d74d",
    ("brownian", "exact", 0.8): "8c8fcdf143450f6a08fb506e9ffdf95d97cc27114ef4810f5f5184f93fae2b6d",
    ("brownian", "exact", 0.95): "ffce4cb196b82a46537197ba511e360dc5a35682c308f3272a9db8989acd9de6",
    ("brownian", "exact", 1.5): "75ad3c89f5a66c6f808a7986ab18152cc9cd6fd129a2e1e89d6ddea43fa5696c",
    ("brownian", "two_term", 0.0): "b5331d088d33e26a42430b371f1ebd0b83dfbf6d7a23ad6a591de8a3bb8fb4ef",
    ("brownian", "two_term", 0.2): "592e74d444b1cd7f0f77fe2004f127e6205a5ca736c33a08e121440d10bfa44f",
    ("brownian", "two_term", 0.5): "14e8bf474c11f51a31b2c9947de90616c30d0a5c4057e7b482945d30a5e9e18a",
    ("brownian", "two_term", 0.6): "b93daae593cfffb7d66d83b7ba4bf263d62b91bd95667d255fc02a40b76dbf7c",
    ("brownian", "two_term", 0.8): "66018312e4d22f391e99e8ed2260ede61d600f313300df47a594803ac0e8473e",
    ("brownian", "two_term", 0.95): "8da1685c05aba2ee139c92fe519041715517cc3e35b5eafd1f3d520f77e1d9b6",
    ("brownian", "two_term", 1.5): "e85068acbf60e05d4434d5e020fcac5b6050f813b7ce7e0377568c7bae791fa6",
    ("brownian", "leading", 0.0): "d604c8a554bcbda168ac997c39dfe36c5696dc85e29472eb3cbaa26fc95c9067",
    ("brownian", "leading", 0.2): "1d5d2d926798828e1899dc7677dca136df9ffd521f4a04911592234b79a2cd30",
    ("brownian", "leading", 0.5): "f30a76577bccbf94c2b1e92b09a5ae8f6c47cd928735fa3a4f56d9da67fd2018",
    ("brownian", "leading", 0.6): "9ed21b484acf6b1addb26b8706aa04afc23442e9bdfdd7aed9a5516478f34b34",
    ("brownian", "leading", 0.8): "556f219450c192c6927f7a2c3586d347d8d27f810fb95ed69885d6ac0a0eca35",
    ("brownian", "leading", 0.95): "dd7f74999f423c3abd7dda959aa9be4826531ad3b6c02c09e555d99e1515a171",
    ("brownian", "leading", 1.5): "376131570a9abf8c9a7a59475e2ddd06ff31eb08566825f6fc08805774fb2ac5",
}


@pytest.mark.parametrize("driver,method,a", sorted(PINS))
def test_assembly_is_pinned(driver, method, a):
    assert _digest(MODELS[driver], a, method) == PINS[(driver, method, a)]
