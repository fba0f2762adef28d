// ftdb_serve — stdin-driven front end for the always-on reconfiguration
// service (serve/service.hpp). One process serves one machine; fault/repair
// events arrive as commands, routing queries are answered from the current
// epoch, and (with --journal) every mutation is write-ahead journaled so a
// killed process resumes exactly where it died.
//
//   ftdb_serve [--family debruijn|shuffle_exchange] [--base M] [--digits H]
//              [--spares K] [--journal PATH] [--no-fsync]
//
// Commands (one per line on stdin; responses are single lines on stdout):
//   fault N            node fault
//   fault link U V     link fault (U's side is retired)
//   fault bus N        bus fault (driver N is retired)
//   repair N           return node N to service
//   route FROM TO      FT-surface physical path (logical ids in, physical out)
//   bare-route FROM TO degraded bare-machine path ("unreachable" if cut off)
//   stats              one-line service stats
//   hash               deterministic state hash (replay/recovery comparisons)
//   dump               retired set + embedding
//   checkpoint         compact the journal
//   crash              exit immediately without cleanup (recovery testing)
//   quit               exit cleanly
//
// Node ids are whole decimal numbers that fit a 32-bit NodeId. A command with
// a missing or malformed id answers "error ..." and changes nothing.
#include <unistd.h>

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "serve/service.hpp"

namespace {

using ftdb::FaultEvent;
using ftdb::FaultKind;
using ftdb::NodeId;
using ftdb::serve::Family;
using ftdb::serve::MutationStatus;
using ftdb::serve::ReconfigurationService;
using ftdb::serve::ServeConfig;

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--family debruijn|shuffle_exchange] [--base M] [--digits H]"
               " [--spares K] [--journal PATH] [--no-fsync]\n";
  return 2;
}

/// `token` as a node id: a whole decimal number that fits NodeId. Throws
/// std::invalid_argument otherwise, so no command acts on an id it did not
/// parse.
NodeId parse_id(const std::string& token) {
  if (token.empty()) throw std::invalid_argument("missing node id");
  NodeId id = 0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, id);
  if (ec != std::errc{} || ptr != end) throw std::invalid_argument("not a node id: " + token);
  return id;
}

/// The next whitespace-separated token of `in`, parsed by parse_id.
NodeId read_id(std::istringstream& in) {
  std::string token;
  in >> token;
  return parse_id(token);
}

void print_path(const std::vector<NodeId>& path) {
  if (path.empty()) {
    std::cout << "unreachable\n";
    return;
  }
  std::cout << "path hops=" << path.size() - 1;
  for (const NodeId node : path) std::cout << ' ' << node;
  std::cout << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  ServeConfig config;
  config.digits = 4;
  config.spares = 2;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "ftdb_serve: " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--family") {
      const std::string family = next();
      if (family == "debruijn") {
        config.family = Family::kDeBruijn;
      } else if (family == "shuffle_exchange") {
        config.family = Family::kShuffleExchange;
      } else {
        return usage(argv[0]);
      }
    } else if (arg == "--base") {
      config.base = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--digits") {
      config.digits = static_cast<unsigned>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--spares") {
      config.spares = static_cast<unsigned>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--journal") {
      config.journal_path = next();
    } else if (arg == "--no-fsync") {
      config.fsync_journal = false;
    } else {
      return usage(argv[0]);
    }
  }

  try {
    ReconfigurationService service(config);
    auto reader = service.reader();
    std::cout << "serving " << service.num_logical_nodes() << " logical on "
              << service.num_physical_nodes() << " physical nodes, "
              << service.replayed_events() << " journaled events replayed\n";

    std::string line;
    while (std::getline(std::cin, line)) {
      std::istringstream in(line);
      std::string cmd;
      if (!(in >> cmd) || cmd.empty() || cmd[0] == '#') continue;
      try {
        if (cmd == "quit") {
          break;
        } else if (cmd == "crash") {
          ::_exit(3);  // no destructors, no flush: simulates a hard crash
        } else if (cmd == "fault") {
          FaultEvent event;
          std::string sub;
          in >> sub;
          if (sub == "link") {
            event.kind = FaultKind::kLink;
            event.node = read_id(in);
            event.other = read_id(in);
          } else if (sub == "bus") {
            event.kind = FaultKind::kBus;
            event.node = read_id(in);
          } else {
            event.kind = FaultKind::kNode;
            event.node = parse_id(sub);
          }
          std::cout << mutation_status_name(service.fault(event)) << '\n';
        } else if (cmd == "repair") {
          const NodeId node = read_id(in);
          std::cout << mutation_status_name(service.repair(node)) << '\n';
        } else if (cmd == "route" || cmd == "bare-route") {
          const NodeId from = read_id(in);
          const NodeId to = read_id(in);
          print_path(cmd == "route" ? reader.route(from, to) : reader.bare_route(from, to));
        } else if (cmd == "stats") {
          const auto s = service.stats();
          std::cout << "epoch=" << s.epoch << " faults=" << s.faults_outstanding << "/"
                    << s.spare_budget << " degraded=" << (s.degraded ? 1 : 0)
                    << " exceptions=" << s.bare.exception_entries
                    << " journal_records=" << s.journal_records
                    << " journal_bytes=" << s.journal_bytes
                    << " epochs_live=" << s.epochs_live << '\n';
        } else if (cmd == "hash") {
          std::cout << "hash " << std::hex << service.state_hash() << std::dec << '\n';
        } else if (cmd == "dump") {
          const auto epoch = service.snapshot();
          std::cout << "retired";
          for (const NodeId node : epoch->retired) std::cout << ' ' << node;
          std::cout << "\nphi";
          for (const NodeId node : epoch->phi) std::cout << ' ' << node;
          std::cout << '\n';
        } else if (cmd == "checkpoint") {
          service.checkpoint();
          std::cout << "checkpointed journal_bytes=" << service.stats().journal_bytes << '\n';
        } else {
          std::cout << "error unknown command: " << cmd << '\n';
        }
      } catch (const std::exception& e) {
        std::cout << "error " << e.what() << '\n';
      }
      std::cout.flush();
    }
  } catch (const std::exception& e) {
    std::cerr << "ftdb_serve: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
