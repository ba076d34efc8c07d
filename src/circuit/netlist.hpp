// Circuit netlist: nodes plus the device set needed by the analog max-flow
// substrate of Liu & Zhang (DAC'15).
//
// Device models:
//  - Resistor: linear, resistance may be negative (the paper's ideal
//    negative resistors are stamped directly as negative conductances).
//  - NegativeResistor: behavioural negative resistor with an optional
//    first-order lag (time constant tau) standing in for the finite
//    gain-bandwidth of the op-amp realisation; tau == 0 gives the ideal
//    element. I satisfies  tau * dI/dt = -V/R - I.
//  - Diode: piecewise-linear ideal diode (Ron / Roff / Von) by default, or a
//    Shockley exponential model for SPICE-grade runs.
//  - OpAmp: single-pole behavioural op-amp: the internal source Ve follows
//    tau_a * dVe/dt = A (V+ - V-) - Ve with tau_a = A / (2 pi GBW), driving
//    the output through Rout. Used to build the Fig. 9a negative-impedance
//    converter explicitly.
//  - Memristor: a resistor whose memristance is a configuration (programmed
//    by the crossbar controller, Sec. 3.1) with behavioural threshold
//    switching used by the programming model.
//  - Voltage / current sources; voltage sources add a branch-current
//    unknown in MNA.
//
// Node 0 is ground; all other nodes are created with `new_node`.
#pragma once

#include <string>
#include <vector>

namespace aflow::circuit {

using NodeId = int;
inline constexpr NodeId kGround = 0;

struct Resistor {
  NodeId a = kGround;
  NodeId b = kGround;
  double resistance = 0.0; // ohms; negative allowed (ideal negative resistor)
};

struct NegativeResistor {
  NodeId a = kGround;
  NodeId b = kGround;
  double magnitude = 0.0; // ohms, > 0; element behaves as -magnitude
  double tau = 0.0;       // seconds; 0 = ideal (no lag)
};

struct Capacitor {
  NodeId a = kGround;
  NodeId b = kGround;
  double capacitance = 0.0; // farads
};

struct VoltageSource {
  NodeId pos = kGround;
  NodeId neg = kGround;
  double value = 0.0; // volts; mutable between solves (step/ramp drivers)
};

struct CurrentSource {
  NodeId from = kGround;
  NodeId to = kGround;
  double value = 0.0; // amps flowing from -> to through the source
};

enum class DiodeModel {
  kPiecewiseLinear, // ideal switch: Ron + Von when on, Roff when off
  kShockley,        // I = Is (exp(V / (n VT)) - 1), Newton-linearised
};

struct DiodeParams {
  DiodeModel model = DiodeModel::kPiecewiseLinear;
  double r_on = 1.0;      // ohms (PWL on-state)
  double r_off = 1e9;     // ohms (PWL off-state)
  double v_on = 0.0;      // volts (PWL turn-on voltage)
  double i_sat = 1e-14;   // amps (Shockley)
  double emission = 1.0;  // ideality factor n (Shockley)
};

struct Diode {
  NodeId anode = kGround;
  NodeId cathode = kGround;
  DiodeParams params;
};

struct OpAmpParams {
  double gain = 1e4;    // open-loop DC gain A (Table 1)
  double gbw = 10e9;    // gain-bandwidth product, Hz (Table 1: 10-50 GHz)
  double r_out = 50.0;  // output resistance, ohms
  double v_rail = 15.0; // output saturation (+-), volts; <= 0 disables
};

struct OpAmp {
  NodeId in_plus = kGround;
  NodeId in_minus = kGround;
  NodeId out = kGround;
  OpAmpParams params;
  /// Dominant-pole time constant of the internal state Ve.
  double tau() const;
};

struct MemristorParams {
  double r_lrs = 10e3;        // ohms, low-resistance state (Table 1)
  double r_hrs = 1000e3;      // ohms, high-resistance state (Table 1)
  double v_threshold = 1.3;   // volts; |V| above this moves the state
  double switch_rate = 1e15;  // (ohm/s)/V overdrive: d|M|/dt scale
};

struct Memristor {
  NodeId a = kGround;
  NodeId b = kGround;
  MemristorParams params;
  double memristance = 1000e3; // current configuration, ohms

  /// Behavioural programming step: evolves memristance under voltage
  /// `v = Va - Vb` applied for `dt` seconds. Positive overdrive moves the
  /// device toward LRS, negative toward HRS; below threshold it retains.
  void apply_programming_pulse(double v, double dt);
  bool is_lrs() const { return memristance <= 2.0 * params.r_lrs; }
};

class Netlist {
 public:
  Netlist();

  /// Creates a node and returns its id. Names are for diagnostics only.
  NodeId new_node(std::string name = {});
  int num_nodes() const { return static_cast<int>(node_names_.size()); }
  const std::string& node_name(NodeId n) const { return node_names_[n]; }

  int add_resistor(NodeId a, NodeId b, double ohms);
  int add_negative_resistor(NodeId a, NodeId b, double magnitude_ohms,
                            double tau = 0.0);
  int add_capacitor(NodeId a, NodeId b, double farads);
  int add_vsource(NodeId pos, NodeId neg, double volts);
  int add_isource(NodeId from, NodeId to, double amps);
  int add_diode(NodeId anode, NodeId cathode, const DiodeParams& params = {});
  int add_opamp(NodeId in_plus, NodeId in_minus, NodeId out,
                const OpAmpParams& params = {});
  int add_memristor(NodeId a, NodeId b, const MemristorParams& params,
                    double initial_memristance);

  const std::vector<Resistor>& resistors() const { return resistors_; }
  const std::vector<NegativeResistor>& negative_resistors() const { return negres_; }
  const std::vector<Capacitor>& capacitors() const { return capacitors_; }
  const std::vector<VoltageSource>& vsources() const { return vsources_; }
  const std::vector<CurrentSource>& isources() const { return isources_; }
  const std::vector<Diode>& diodes() const { return diodes_; }
  const std::vector<OpAmp>& opamps() const { return opamps_; }
  const std::vector<Memristor>& memristors() const { return memristors_; }

  void set_vsource_value(int id, double volts) { vsources_[id].value = volts; }
  Memristor& memristor(int id) { return memristors_[id]; }
  void set_resistance(int id, double ohms) { resistors_[id].resistance = ohms; }
  void set_negative_resistor_magnitude(int id, double ohms) {
    negres_[id].magnitude = ohms;
  }

  /// Adds the Fig. 9a negative-impedance converter: an explicit op-amp
  /// (`params`) with feedback resistors `r0` realising -r_target between
  /// `terminal` and ground. Returns the op-amp id.
  int add_nic_negative_resistor(NodeId terminal, double r_target, double r0,
                                const OpAmpParams& params);

 private:
  void check_node(NodeId n) const;

  std::vector<std::string> node_names_;
  std::vector<Resistor> resistors_;
  std::vector<NegativeResistor> negres_;
  std::vector<Capacitor> capacitors_;
  std::vector<VoltageSource> vsources_;
  std::vector<CurrentSource> isources_;
  std::vector<Diode> diodes_;
  std::vector<OpAmp> opamps_;
  std::vector<Memristor> memristors_;
};

} // namespace aflow::circuit
