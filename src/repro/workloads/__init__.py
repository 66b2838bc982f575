"""Workloads: the paper's Fig. 1 example, DSP kernels, chains, and a random generator."""

from .chains import CHAIN_SHAPES, chain_source, conv_source
from .fig1 import (
    FIG1_SOURCES,
    fig1_program,
    fig1_original,
    fig1_ver1,
    fig1_ver2,
    fig1_ver3_erroneous,
)
from .generator import GeneratedPair, RandomProgramGenerator
from .kernels import KERNEL_REGISTRY, SMALL_KERNEL_PARAMS, KernelPair, kernel_names, kernel_pair

__all__ = [
    "CHAIN_SHAPES",
    "FIG1_SOURCES",
    "GeneratedPair",
    "KERNEL_REGISTRY",
    "KernelPair",
    "SMALL_KERNEL_PARAMS",
    "RandomProgramGenerator",
    "chain_source",
    "conv_source",
    "fig1_original",
    "fig1_program",
    "fig1_ver1",
    "fig1_ver2",
    "fig1_ver3_erroneous",
    "kernel_names",
    "kernel_pair",
]
