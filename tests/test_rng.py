"""Counter-addressed trial streams."""

import numpy as np

from stirtree.rng import TrialStreams, stream_key


def _fresh(key, i):
    return np.random.Generator(np.random.Philox(key=key, counter=[0, 0, i, 0]))


def test_trial_stream_is_its_counter_block_in_any_order():
    streams = TrialStreams(3, "pn", 2, 3, 0.5)
    for i in (5, 0, 17, 5, 2**40, 1, 0):
        gen = streams.at(i)
        ref = _fresh(streams.key, i)
        # float32 draws leave a buffered half word behind; the next at()
        # must not leak it into the following trial
        assert np.array_equal(gen.random(3, dtype=np.float32), ref.random(3, dtype=np.float32))
        assert np.array_equal(gen.poisson(0.7, size=9), ref.poisson(0.7, size=9))
        assert gen.random() == ref.random()


def test_trial_zero_is_the_plain_keyed_stream():
    streams = TrialStreams(8, "z", 16, 4, 0.0625)
    streams.at(4).random(11)
    plain = np.random.Generator(np.random.Philox(key=stream_key(8, "z", 16, 4, 0.0625)))
    assert np.array_equal(streams.at(0).random(6), plain.random(6))
