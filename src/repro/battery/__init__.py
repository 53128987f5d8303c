"""Battery substrate: chemistries, cells, V-edge, switch, packs."""

from .chemistry import (
    BatteryRole,
    CHEMISTRIES,
    Chemistry,
    FeatureRatings,
    LCO,
    LFP,
    LMO,
    LTO,
    NCA,
    NMC,
    classify,
    orthogonality,
    pick_big_little,
)
from .aging import AgingModel, CellHealth, project_lifetime
from .cell import Cell, DrawResult
from .charging import CCCVCharger, ChargeResult
from .multipack import GreedyCellRouter, MixedPack
from .pack import BatteryPack, BigLittlePack, PackDraw, SingleBatteryPack
from .supercap import Supercapacitor
from .switch import BatterySelection, BatterySwitch, SwitchEvent, ttl_signal
from .vedge import VEdgeAnalysis, VEdgeTrace, analyze_vedge, simulate_step_response

__all__ = [
    "BatteryRole",
    "CHEMISTRIES",
    "Chemistry",
    "FeatureRatings",
    "LCO",
    "LFP",
    "LMO",
    "LTO",
    "NCA",
    "NMC",
    "classify",
    "orthogonality",
    "pick_big_little",
    "AgingModel",
    "CellHealth",
    "project_lifetime",
    "CCCVCharger",
    "ChargeResult",
    "Cell",
    "DrawResult",
    "GreedyCellRouter",
    "MixedPack",
    "BatteryPack",
    "BigLittlePack",
    "PackDraw",
    "SingleBatteryPack",
    "Supercapacitor",
    "BatterySelection",
    "BatterySwitch",
    "SwitchEvent",
    "ttl_signal",
    "VEdgeAnalysis",
    "VEdgeTrace",
    "analyze_vedge",
    "simulate_step_response",
]
