"""Shared fixtures: one small synthesized conversation and its frontend
products, reused across test modules because synthesis plus MFCC is the
slowest part of the suite.
"""

import numpy as np
import pytest

from feddiar.pipeline import PipelineConfig, frontend_and_silence
from feddiar.synth import random_conversation_spec, synth_conversation


@pytest.fixture(scope="session")
def small_conv():
    spec = random_conversation_spec(num_speakers=2, seed=7,
                                    min_changes=3, max_changes=5)
    return synth_conversation(spec)


@pytest.fixture(scope="session")
def small_conv_frontend(small_conv):
    audio, _ = small_conv
    return frontend_and_silence(audio, PipelineConfig())


@pytest.fixture
def rng():
    return np.random.default_rng(123)
