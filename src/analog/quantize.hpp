// Voltage-level quantization (Sec. 4.1).
//
// Capacities are mapped onto N uniformly spaced source voltages in (0, Vdd];
// the circuit solution (volts) maps back to flow units by the C / Vdd scale.
// The paper's formula uses floor; its own Fig. 8 example (capacity 1, C = 3,
// N = 20 -> 0.35 V) rounds, so both are provided and kRound is the default.
#pragma once

#include <vector>

namespace aflow::analog {

enum class QuantizationMode {
  kFloor, // Q(x) = floor(x/C * N) / N * Vdd   (paper's Eq. in Sec. 4.1)
  kRound, // Q(x) = round(x/C * N) / N * Vdd   (matches the Fig. 8 example)
  kNone,  // one exact voltage per distinct capacity (idealised substrate)
};

class Quantizer {
 public:
  /// `max_capacity` is C, the largest capacity of the instance.
  Quantizer(double vdd, int levels, double max_capacity,
            QuantizationMode mode = QuantizationMode::kRound);

  /// Capacity -> source voltage (volts).
  double to_voltage(double capacity) const;
  /// Circuit voltage -> flow units.
  double to_flow(double voltage) const { return voltage * max_capacity_ / vdd_; }

  /// Worst-case per-edge quantization error e = C / N (Sec. 4.1).
  double worst_case_error() const;

  double vdd() const { return vdd_; }
  int levels() const { return levels_; }
  double max_capacity() const { return max_capacity_; }
  QuantizationMode mode() const { return mode_; }

 private:
  double vdd_;
  int levels_;
  double max_capacity_;
  QuantizationMode mode_;
};

} // namespace aflow::analog
