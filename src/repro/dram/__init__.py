"""Conventional HBM DRAM substrate.

This package models the DRAM side of a conventional HBM-based memory system
as described in Section II of the RoMe paper:

* :mod:`repro.dram.generations` -- published per-generation HBM specifications
  (HBM1 through HBM4) used for the trend analysis of Figure 2.
* :mod:`repro.dram.timing` -- DRAM timing parameter sets (Table II / Table V).
* :mod:`repro.dram.commands` -- DRAM command vocabulary.
* :mod:`repro.dram.bank` -- a single DRAM bank: open row and timing windows.
* :mod:`repro.dram.bankgroup` / :mod:`repro.dram.pseudochannel` /
  :mod:`repro.dram.channel` / :mod:`repro.dram.stack` -- the HBM hierarchy.
* :mod:`repro.dram.address` -- physical-address-to-DRAM-coordinate mapping.
* :mod:`repro.dram.refresh` -- per-bank refresh bookkeeping.
* :mod:`repro.dram.energy` -- per-command/per-byte energy accounting.
"""

from repro.dram.commands import Command, CommandKind, command_bus
from repro.dram.timing import HBM4_TIMING, TimingParameters, derive_hbm4_timing
from repro.dram.generations import HBM_GENERATIONS, HBMGenerationSpec
from repro.dram.bank import Bank
from repro.dram.bankgroup import BankGroup
from repro.dram.pseudochannel import PseudoChannel
from repro.dram.channel import Channel, ChannelConfig
from repro.dram.stack import HBMStack, StackConfig
from repro.dram.address import AddressMapping, DramCoordinate
from repro.dram.refresh import RefreshEngine
from repro.dram.energy import EnergyModel, EnergyCounters

__all__ = [
    "AddressMapping",
    "Bank",
    "BankGroup",
    "Channel",
    "ChannelConfig",
    "Command",
    "CommandKind",
    "DramCoordinate",
    "EnergyCounters",
    "EnergyModel",
    "HBM4_TIMING",
    "HBMGenerationSpec",
    "HBMStack",
    "HBM_GENERATIONS",
    "PseudoChannel",
    "RefreshEngine",
    "StackConfig",
    "TimingParameters",
    "command_bus",
    "derive_hbm4_timing",
]
