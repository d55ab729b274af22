"""Speaker diarization with quasi-silence segmentation, greedy BIC
clustering, and federated speaker identification.

Names are imported from their modules, such as `feddiar.pipeline`."""

__version__ = "0.1.0"
