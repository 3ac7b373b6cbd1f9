#ifndef GTADOC_GTADOC_DEVICE_GRAMMAR_H_
#define GTADOC_GTADOC_DEVICE_GRAMMAR_H_

#include <cstdint>
#include <vector>

#include "format/dag.h"
#include "format/grammar.h"
#include "gpu/device.h"

namespace gtadoc {

struct DeviceGrammar;

/// \brief The high-water array extents of a recycled device-grammar arena.
///
/// A standalone engine loads each document it is bound to into one packed
/// arena; the allocation call is charged only when the document outgrows
/// some array of it (a load onto a same-shaped document pays none).
struct GrammarArena {
  uint64_t rules = 0;
  uint64_t body = 0;
  uint64_t edges = 0;
  uint64_t words = 0;
  uint64_t root = 0;

  /// Grows the extents to hold `g`; true when some array had to grow.
  bool Fit(const DeviceGrammar& g);
};

/// \brief Device-resident grammar: the flat CSR arrays every G-TADOC kernel
/// indexes by thread id.
///
/// Built once per document on the host, together with its DocumentIndex,
/// and immutable afterwards: every engine, probe and device bound to the
/// document reads the same arrays. Putting it on a device is the separate
/// Load step, which charges what the paper's initialization phase does to
/// make a document resident — the arena allocation, the H2D transfer of
/// the compressed data and the root scan (the "light-weight scanning" of
/// Figure 3). A device that keeps the document resident (the server's
/// DeviceGroup) loads it once; a standalone engine loads it per binding.
struct DeviceGrammar {
  uint32_t num_rules = 0;
  uint32_t num_words = 0;
  uint32_t num_files = 0;

  // Rule bodies, CSR.
  std::vector<uint64_t> body_off;   // size num_rules + 1
  std::vector<uint32_t> body_sym;   // symbol ids (grammar id space)

  // Aggregated rule->rule edges, CSR over parents.
  std::vector<uint32_t> child_off;  // size num_rules + 1
  std::vector<uint32_t> child_id;   // child rule index
  std::vector<uint32_t> child_freq;

  // Aggregated local words, CSR.
  std::vector<uint32_t> word_off;  // size num_rules + 1
  std::vector<uint32_t> word_id;
  std::vector<uint32_t> word_freq;

  // Distinct parents, CSR (includes the root as parent 0).
  std::vector<uint32_t> parent_off;  // size num_rules + 1
  std::vector<uint32_t> parent_id;

  // Per-rule topology.
  std::vector<uint32_t> in_edges_nonroot;  // distinct non-root parents
  std::vector<uint32_t> num_children;      // distinct children
  std::vector<uint32_t> root_freq;         // multiplicity in the root body

  /// Root scan output: file id of every root body position (the number of
  /// splitters at or before it).
  std::vector<uint32_t> root_file_of_pos;

  uint32_t num_edges() const { return static_cast<uint32_t>(child_id.size()); }

  /// Size of the packed device arena: every array above, plus 4 bytes per
  /// edge that no array uses. Earlier layouts kept a per-edge index there;
  /// the bytes stay counted so that the simulated upload and the device
  /// memory check charge what they always have.
  size_t DeviceBytes() const;
  /// The part of the arena shipped over PCIe: all of it except
  /// root_file_of_pos, which the root scan writes on the device.
  size_t UploadBytes() const {
    return DeviceBytes() - root_file_of_pos.size() * sizeof(uint32_t);
  }

  /// DeviceBytes() of the device grammar Build would produce for `g`,
  /// counted from the grammar alone — a corpus is sized for device memory
  /// without building any index. Exact for grammars DagView accepts; any
  /// other grammar gets a count and no crash.
  static size_t BytesFor(const Grammar& g);

  /// Builds the arrays from a validated grammar + DAG view on the host,
  /// root_file_of_pos included. Charges nothing: see Load.
  static DeviceGrammar Build(const Grammar& g, const DagView& dag);

  /// Puts this grammar on `device`, charging exactly what making a document
  /// resident costs: one arena allocation call (with `arena` set, only when
  /// the document outgrows it; null: a fresh allocation), the H2D transfer
  /// of UploadBytes() when `charge_pcie` is set, and the four root-scan
  /// launches (rootSplitterIndicator, scanReduce, scanRescan,
  /// rootFileAssign) with the per-thread charges of the scan that produced
  /// root_file_of_pos. The paper assumes datasets that fit in GPU memory are
  /// resident (Section VI-A), so engines default `charge_pcie` to false and
  /// enable it only for the large-dataset experiments.
  void Load(gpu::Device* device, bool charge_pcie, GrammarArena* arena) const;
};

}  // namespace gtadoc

#endif  // GTADOC_GTADOC_DEVICE_GRAMMAR_H_
