"""Whole-train ECG and ABP rendering equals the per-beat reference.

The synthesizers evaluate chunks of beats over a (beats x longest slice)
grid and add the rows in beat order; :mod:`tests.signals.oracle` renders
one beat per call.  The two must agree bit for bit, including at the
record edges and across chunk boundaries between overlapping beats.
"""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.signals import abp, ecg
from repro.signals.cardiac import BeatTrain
from repro.signals.subjects import generate_cohort
from tests.signals import oracle

SUBJECTS = generate_cohort(n_subjects=12, seed=2017)
SAMPLE_RATES = (125.0, 360.0)


def assert_renders_equal(subject, beats, sample_rate):
    ecg_synth = subject.ecg_synthesizer()
    abp_synth = subject.abp_synthesizer()
    got_ecg = ecg_synth.synthesize(beats, sample_rate)
    got_abp = abp_synth.synthesize(beats, sample_rate)
    assert np.array_equal(got_ecg, oracle.render_ecg(ecg_synth, beats, sample_rate))
    assert np.array_equal(got_abp, oracle.render_abp(abp_synth, beats, sample_rate))


@st.composite
def beat_trains(draw, max_beats=40):
    """Trains of 0..max_beats beats; the first may start at 0 and the last
    may run past the end, so slices get clipped at both record edges."""
    n = draw(st.integers(0, max_beats))
    first = draw(st.floats(0.0, 1.0))
    rr = draw(st.lists(st.floats(0.25, 1.6), min_size=n, max_size=n))
    onsets = first + np.concatenate([[0.0], np.cumsum(rr[:-1])]) if n else np.empty(0)
    tail = draw(st.floats(0.01, 2.0))
    duration = (float(onsets[-1]) if n else 0.0) + tail
    ectopic = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return BeatTrain(onsets=onsets, duration=duration, ectopic=np.array(ectopic, bool))


class TestRenderEqualsPerBeatOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        beats=beat_trains(),
        subject=st.sampled_from(SUBJECTS),
        sample_rate=st.sampled_from(SAMPLE_RATES),
        chunk=st.integers(1, 8),
    )
    def test_any_train_any_chunk(self, beats, subject, sample_rate, chunk):
        """Small chunks put boundaries between overlapping beats."""
        with mock.patch.object(ecg, "_CHUNK_BEATS", chunk), mock.patch.object(
            abp, "_CHUNK_BEATS", chunk
        ):
            assert_renders_equal(subject, beats, sample_rate)

    @pytest.mark.parametrize("sample_rate", SAMPLE_RATES)
    @pytest.mark.parametrize("onsets", [[], [0.3]], ids=["0-beats", "1-beat"])
    def test_empty_and_single_beat_trains(self, onsets, sample_rate):
        beats = BeatTrain(onsets=np.array(onsets, dtype=np.float64), duration=2.0)
        assert_renders_equal(SUBJECTS[0], beats, sample_rate)

    @pytest.mark.parametrize("sample_rate", SAMPLE_RATES)
    def test_clipped_first_and_last_beats(self, sample_rate):
        """The first slice starts before sample 0 and the last runs off the
        end; an ectopic beat sits on a chunk boundary."""
        onsets = np.array([0.0, 0.4, 1.3, 1.9, 2.8, 3.5, 4.3, 4.99])
        ectopic = np.zeros(onsets.size, bool)
        ectopic[[1, 4]] = True
        beats = BeatTrain(onsets=onsets, duration=5.0, ectopic=ectopic)
        with mock.patch.object(ecg, "_CHUNK_BEATS", 4), mock.patch.object(
            abp, "_CHUNK_BEATS", 4
        ):
            assert_renders_equal(SUBJECTS[3], beats, sample_rate)

    @pytest.mark.parametrize("sample_rate", SAMPLE_RATES)
    def test_generated_ectopic_record_at_the_real_chunk_size(self, sample_rate):
        """A cohort subject's 6-minute train with PVCs spans several chunks."""
        subject = replace(SUBJECTS[-1], ectopic_rate=4.0)
        beats = subject.cardiac_process().generate(360.0, np.random.default_rng(7))
        assert len(beats) > 3 * ecg._CHUNK_BEATS and beats.n_ectopic > 0
        assert_renders_equal(subject, beats, sample_rate)
