// Substrate design parameters (Table 1 of the paper) plus the modelling
// knobs for the fidelity ladder described in DESIGN.md "Fidelity ladder".
#pragma once

#include "circuit/netlist.hpp"

namespace aflow::analog {

/// How negative resistors (and the op-amps realising them) are modelled.
enum class NegResFidelity {
  kIdeal,      // literal negative conductance (the paper's Sec. 2 idealisation)
  kLag,        // first-order lag, tau = 1 / (pi * GBW): captures finite GBW
  kOpAmpNic,   // explicit Fig. 9a negative-impedance converter per element
};

/// Table 1: "Design parameters for the max-flow computing substrate."
struct SubstrateConfig {
  double lrs_resistance = 10e3;    // memristor LRS, ohms (the base r)
  double hrs_resistance = 1000e3;  // memristor HRS, ohms
  double vflow = 3.0;              // objective drive, volts
  double opamp_gain = 1e4;         // open-loop gain A
  double opamp_gbw = 10e9;         // gain-bandwidth product, Hz (10G..50G)
  int crossbar_rows = 1000;
  int crossbar_cols = 1000;
  int voltage_levels = 20;         // quantization levels N
  double vdd = 1.0;                // supply for capacity levels, volts

  // Modelling knobs (not part of Table 1).
  NegResFidelity fidelity = NegResFidelity::kLag;
  double parasitic_capacitance = 20e-15; // farads per net (Sec. 5.1); 0 = off
  /// Attach parasitics to widget-internal nodes (P, x^-) as well as the
  /// crossbar-visible nets. The idealised negative resistors make the
  /// internal nodes saddle points when capacitively loaded (see DESIGN.md
  /// "NIC saddle-point instability under capacitive load"); the default
  /// keeps parasitics on the long crossbar wires only.
  bool parasitics_on_internal_nodes = false;
  /// kLag realisation: true = series one-pole lag element on the negative
  /// resistor current (marginal at the widget operating point, relies on
  /// the L-stable integrator's damping); false = stable first-order
  /// equivalent (ideal negative conductance + shunt capacitance G*tau).
  bool lag_uses_series_element = false;
  circuit::DiodeParams diode{};          // PWL, Von = 0 by default
  /// Adjust clamp sources by the diode turn-on voltage (footnote 2).
  bool compensate_diode_von = true;
  double opamp_rout = 50.0;              // ohms
  double nic_r0 = 10e3;                  // ohms, Fig. 9a feedback resistors
  /// The NIC is a positive-feedback element: a large start-up transient can
  /// drive the op-amp to its rail, where the output (through Rtarget) holds
  /// the + input high — a self-consistent latch-up. Diode clamps on the NIC
  /// terminal (at +-min(anti_latch_margin * vdd, 0.45 * v_rail), far outside
  /// the operating range but inside the recovery bound rail/2) break the
  /// latch without affecting normal operation. See DESIGN.md "Railed
  /// latch-up and anti-latch clamps".
  bool nic_anti_latch = true;
  double anti_latch_margin = 3.0; // in units of vdd
  /// Stability margin for the negative resistors. The paper's widget sets
  /// |-R| exactly equal to the surrounding network resistance (r/2 against
  /// two parallel r, r/N against N links) — the marginal point of negative-
  /// impedance-converter stability, where any perturbation latches or
  /// diverges. Scaling the magnitudes by (1 + margin) moves every widget
  /// strictly into the stable region at the cost of an O(margin) negation /
  /// conservation error. 0 reproduces the paper's exact (marginal) design;
  /// the ablation bench quantifies the error/stability trade.
  double stability_margin = 0.0;
  /// Level-source sharing. The hardware shares one DAC voltage source per
  /// distinct capacity level (Sec. 4.1), which is what the default models —
  /// but it makes the netlist *shape* depend on the programmed capacities
  /// (which levels are in use, which edges share a rail). `true` gives
  /// every capacity clamp its own level source: electrically identical
  /// (same node voltages, same flows; source currents just stop being
  /// aggregated), a few extra branch unknowns, and an MNA pattern that
  /// depends only on the graph topology. That pattern stability is what
  /// lets reconfiguration batches — one topology, reprogrammed capacities —
  /// share factored-LU prototypes and warm-start state across instances
  /// (see core::ReusePool), exactly like the physical substrate, where
  /// reprogramming changes DAC codes, never the wiring.
  bool dedicated_level_sources = false;

  /// Lag time constant for NegResFidelity::kLag. The Fig. 9a NIC runs at a
  /// closed-loop feedback factor of ~1/2, so its bandwidth is ~GBW/2 and
  /// tau = 1 / (pi * GBW).
  double lag_tau() const;

  /// Output rails of the substrate op-amps. The marginal NIC widgets latch
  /// against any hard output bound (rails or clamps) once a start-up
  /// transient reaches it, so the default models the amps as unrailed: they
  /// settle correctly on instances whose transients stay bounded and the
  /// simulator's divergence guard reports the rest — both behaviours are
  /// findings of this reproduction (see EXPERIMENTS.md "Railed vs unrailed
  /// op-amp models"). Set > 0 to study the railed model.
  double opamp_v_rail = 0.0;

  circuit::OpAmpParams opamp_params() const {
    return {opamp_gain, opamp_gbw, opamp_rout, opamp_v_rail};
  }
};

} // namespace aflow::analog
