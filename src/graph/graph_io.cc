#include "graph/graph_io.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <istream>
#include <limits>
#include <unordered_set>

#include "common/json_writer.h"
#include "common/string_util.h"

namespace rpg::graph {

namespace {

constexpr uint64_t kMagic = 0x5250475f47524146ULL;  // "RPG_GRAF"
constexpr uint32_t kVersion = 1;

template <typename T>
void WriteVec(std::ofstream& os, const std::vector<T>& v) {
  uint64_t n = v.size();
  os.write(reinterpret_cast<const char*>(&n), sizeof(n));
  os.write(reinterpret_cast<const char*>(v.data()),
           static_cast<std::streamsize>(n * sizeof(T)));
}

template <typename T>
bool ReadVec(std::istream& is, std::vector<T>* v) {
  uint64_t n = 0;
  is.read(reinterpret_cast<char*>(&n), sizeof(n));
  if (!is) return false;
  if (n > std::numeric_limits<uint64_t>::max() / sizeof(T)) return false;
  // The length prefix is attacker-controlled: growing in bounded chunks
  // instead of resize(n) means a lying header fails at its first short
  // read, not with a multi-GB allocation (the old resize-bomb).
  constexpr uint64_t kChunkElems = 1u << 16;
  v->clear();
  uint64_t remaining = n;
  while (remaining > 0) {
    const uint64_t take = std::min(remaining, kChunkElems);
    const size_t old_size = v->size();
    v->resize(old_size + static_cast<size_t>(take));
    is.read(reinterpret_cast<char*>(v->data() + old_size),
            static_cast<std::streamsize>(take * sizeof(T)));
    if (!is) return false;
    remaining -= take;
  }
  return true;
}

/// One direction's CSR arrays must describe `num_nodes` valid spans:
/// anything less and OutNeighbors/InNeighbors index out of bounds.
Status ValidateCsr(const std::vector<uint64_t>& offsets,
                   const std::vector<PaperId>& targets, size_t num_nodes,
                   const char* which, const std::string& context) {
  if (offsets.size() != num_nodes + 1) {
    return Status::InvalidArgument(
        StrFormat("%s offsets size mismatch: %s", which, context.c_str()));
  }
  if (offsets.front() != 0) {
    return Status::InvalidArgument(
        StrFormat("%s offsets do not start at 0: %s", which, context.c_str()));
  }
  for (size_t i = 0; i + 1 < offsets.size(); ++i) {
    if (offsets[i] > offsets[i + 1]) {
      return Status::InvalidArgument(StrFormat(
          "%s offsets not monotonic at %zu: %s", which, i, context.c_str()));
    }
  }
  if (offsets.back() != targets.size()) {
    return Status::InvalidArgument(StrFormat(
        "%s offsets/targets length mismatch: %s", which, context.c_str()));
  }
  for (size_t i = 0; i < targets.size(); ++i) {
    if (targets[i] >= num_nodes) {
      return Status::InvalidArgument(StrFormat(
          "%s target out of range at %zu: %s", which, i, context.c_str()));
    }
  }
  return Status::OK();
}

}  // namespace

Status GraphIo::WriteBinary(const CitationGraph& g, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  if (!os) return Status::IoError("cannot open for write: " + path);
  os.write(reinterpret_cast<const char*>(&kMagic), sizeof(kMagic));
  os.write(reinterpret_cast<const char*>(&kVersion), sizeof(kVersion));
  WriteVec(os, g.out_offsets_);
  WriteVec(os, g.out_targets_);
  WriteVec(os, g.in_offsets_);
  WriteVec(os, g.in_targets_);
  if (!os) return Status::IoError("short write: " + path);
  return Status::OK();
}

Result<CitationGraph> GraphIo::ReadBinary(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return Status::IoError("cannot open for read: " + path);
  return ReadBinaryFromStream(is, path);
}

Result<CitationGraph> GraphIo::ReadBinaryFromStream(
    std::istream& is, const std::string& context) {
  uint64_t magic = 0;
  uint32_t version = 0;
  is.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  is.read(reinterpret_cast<char*>(&version), sizeof(version));
  if (!is || magic != kMagic) {
    return Status::InvalidArgument("bad graph file header: " + context);
  }
  if (version != kVersion) {
    return Status::InvalidArgument(
        StrFormat("unsupported graph version %u", version));
  }
  CitationGraph g;
  if (!ReadVec(is, &g.out_offsets_) || !ReadVec(is, &g.out_targets_) ||
      !ReadVec(is, &g.in_offsets_) || !ReadVec(is, &g.in_targets_)) {
    return Status::InvalidArgument("truncated graph file: " + context);
  }
  if (g.out_offsets_.empty() ||
      g.in_offsets_.size() != g.out_offsets_.size()) {
    return Status::InvalidArgument("inconsistent graph file: " + context);
  }
  // Node count must fit PaperId: a graph bigger than that cannot be
  // addressed by the 32-bit ids the rest of the pipeline uses.
  const size_t num_nodes = g.out_offsets_.size() - 1;
  if (num_nodes > std::numeric_limits<PaperId>::max()) {
    return Status::InvalidArgument("graph too large for PaperId: " + context);
  }
  RPG_RETURN_NOT_OK(
      ValidateCsr(g.out_offsets_, g.out_targets_, num_nodes, "out", context));
  RPG_RETURN_NOT_OK(
      ValidateCsr(g.in_offsets_, g.in_targets_, num_nodes, "in", context));
  return g;
}

Result<CitationGraph> GraphIo::FromOutCsr(std::vector<uint64_t> out_offsets,
                                          std::vector<PaperId> out_targets) {
  if (out_offsets.empty()) {
    return Status::InvalidArgument("FromOutCsr: empty offsets");
  }
  const size_t num_nodes = out_offsets.size() - 1;
  if (num_nodes > std::numeric_limits<PaperId>::max()) {
    return Status::InvalidArgument("FromOutCsr: graph too large for PaperId");
  }
  RPG_RETURN_NOT_OK(ValidateCsr(out_offsets, out_targets, num_nodes, "out",
                                "FromOutCsr"));
  CitationGraph g;
  g.out_offsets_ = std::move(out_offsets);
  g.out_targets_ = std::move(out_targets);
  // Transpose: count in-degrees, prefix-sum, then scatter sources in
  // ascending order so every in-span comes out sorted.
  g.in_offsets_.assign(num_nodes + 1, 0);
  for (PaperId v : g.out_targets_) ++g.in_offsets_[v + 1];
  for (size_t i = 1; i <= num_nodes; ++i) {
    g.in_offsets_[i] += g.in_offsets_[i - 1];
  }
  g.in_targets_.resize(g.out_targets_.size());
  std::vector<uint64_t> cursor(g.in_offsets_.begin(),
                               g.in_offsets_.end() - 1);
  for (PaperId u = 0; u < num_nodes; ++u) {
    for (uint64_t i = g.out_offsets_[u]; i < g.out_offsets_[u + 1]; ++i) {
      g.in_targets_[cursor[g.out_targets_[i]]++] = u;
    }
  }
  return g;
}

std::string GraphIo::ToDot(const CitationGraph& g,
                           const std::vector<PaperId>& nodes,
                           const std::vector<std::string>& labels) {
  std::unordered_set<PaperId> keep(nodes.begin(), nodes.end());
  std::string out = "digraph citations {\n  rankdir=TB;\n";
  for (PaperId u : nodes) {
    std::string label = (u < labels.size() && !labels[u].empty())
                            ? labels[u]
                            : StrFormat("p%u", u);
    out += StrFormat("  n%u [label=\"%s\"];\n", u,
                     JsonWriter::Escape(label).c_str());
  }
  for (PaperId u : nodes) {
    for (PaperId v : g.OutNeighbors(u)) {
      if (keep.contains(v)) {
        out += StrFormat("  n%u -> n%u;\n", u, v);
      }
    }
  }
  out += "}\n";
  return out;
}

}  // namespace rpg::graph
