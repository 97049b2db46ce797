import os
import threading
import time

import pytest

from frue.matrix import RngHandle
from frue.params import ParamSet, load_paramset
from frue.pke import pke_setup
from frue.ue import ue_kg, ue_tg


@pytest.fixture(scope="session")
def toy16():
    return load_paramset("toy-16")


@pytest.fixture(scope="session")
def toy8():
    return load_paramset("toy-8")


def adhoc_paramset(name="adhoc", D=4, B=1, n=8, m_bar=2, n_bar=2,
                   chi_cdf=(16383, 32767), T_max=1, gen_mode="toy", paramset_id=999):
    return ParamSet(name=name, D=D, B=B, n=n, m_bar=m_bar, n_bar=n_bar,
                    chi_cdf=chi_cdf, T_max=T_max, gen_mode=gen_mode,
                    paramset_id=paramset_id)


def noiseless_paramset(**kw):
    kw.setdefault("chi_cdf", (32767,))
    kw.setdefault("name", "adhoc-noiseless")
    return adhoc_paramset(**kw)


@pytest.fixture(scope="session")
def deployment16(toy16):
    """Shared toy-16 scene: public matrix, keys 0..4, tokens 1..4."""
    rng = RngHandle(b"conftest-deployment")
    a_seed, A = pke_setup(rng, toy16)
    keys = [ue_kg(rng, toy16, A, e) for e in range(toy16.T_max + 1)]
    tokens = {e: ue_tg(rng, toy16, A, keys[e - 1].sk_S, keys[e].pk_B, e)
              for e in range(1, toy16.T_max + 1)}
    return {"p": toy16, "a_seed": a_seed, "A": A, "keys": keys, "tokens": tokens}


@pytest.fixture
def fifo(tmp_path):
    """fifo(blob, split=None) makes a FIFO and returns its path; a thread writes blob
    to it, the first `split` bytes alone, then after a pause the rest, each sent from
    a memoryview so that no slice copies the blob.  Writers are joined at teardown."""
    writers = []

    def make(blob: bytes, split: int | None = None):
        path = tmp_path / f"pipe{len(writers)}.fifo"
        os.mkfifo(path)
        view = memoryview(blob)

        def write():
            with open(path, "wb") as fh:
                if split is not None:
                    fh.write(view[:split])
                    fh.flush()
                    time.sleep(0.2)     # the reader's first read holds only these bytes
                fh.write(view[split or 0:])

        writers.append(threading.Thread(target=write, daemon=True))
        writers[-1].start()
        return path

    yield make
    for w in writers:
        w.join(timeout=10)
