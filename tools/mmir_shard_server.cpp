// Standalone shard-server process (DESIGN.md §6g, ci/net.sh).
//
// Builds the deterministic six-archive pool shared with
// tests/test_shard_parity.cpp and tests/test_net_parity.cpp, registers the
// archives under ids 1..6 and the exact-tie scenarios of
// testing/scenario_gen.hpp under ids 7.., and serves the wire protocol on loopback TCP
// until SIGINT/SIGTERM.  The bound port is printed as "port=<p>" on stdout
// (and flushed) so a launcher script can scrape it; everything else goes to
// stderr.
//
// Usage: mmir_shard_server [--port=N] [--shard=N]
//   --port=N   bind a fixed port (default 0 = kernel-assigned ephemeral)
//   --shard=N  pin the server to one shard id (default: serve any shard)

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "archive/tiled.hpp"
#include "data/scene.hpp"
#include "net/shard_server.hpp"
#include "obs/metrics.hpp"
#include "testing/scenario_gen.hpp"

namespace {

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true); }

struct PooledArchive {
  mmir::Scene scene;
  std::vector<const mmir::Grid*> bands;
  std::vector<mmir::Interval> ranges;
  std::unique_ptr<mmir::TiledArchive> archive;

  PooledArchive(std::size_t size, std::size_t tile, std::uint64_t seed)
      : scene(mmir::generate_scene([&] {
          mmir::SceneConfig cfg;
          cfg.width = size;
          cfg.height = size + size / 3;
          cfg.seed = seed;
          return cfg;
        }())) {
    bands = {&scene.band("b4"), &scene.band("b5"), &scene.band("b7"), &scene.dem};
    for (const mmir::Grid* band : bands) ranges.push_back(band->stats().range());
    archive = std::make_unique<mmir::TiledArchive>(bands, tile);
  }
};

// MUST mirror tests/test_net_parity.cpp's archive_pool(): the cross-process
// oracle depends on the server and the test agreeing on the seeded scenes.
std::vector<std::unique_ptr<PooledArchive>> build_pool() {
  std::vector<std::unique_ptr<PooledArchive>> pool;
  pool.push_back(std::make_unique<PooledArchive>(24, 8, 201));
  pool.push_back(std::make_unique<PooledArchive>(32, 16, 202));
  pool.push_back(std::make_unique<PooledArchive>(40, 8, 203));
  pool.push_back(std::make_unique<PooledArchive>(48, 16, 204));
  pool.push_back(std::make_unique<PooledArchive>(36, 32, 205));
  pool.push_back(std::make_unique<PooledArchive>(28, 16, 206));
  return pool;
}

}  // namespace

int main(int argc, char** argv) {
  mmir::net::ShardServerConfig config;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--port=", 7) == 0) {
      config.port = static_cast<std::uint16_t>(std::strtoul(arg + 7, nullptr, 10));
    } else if (std::strncmp(arg, "--shard=", 8) == 0) {
      config.shard_id = static_cast<std::uint32_t>(std::strtoul(arg + 8, nullptr, 10));
    } else {
      std::fprintf(stderr, "usage: %s [--port=N] [--shard=N]\n", argv[0]);
      return 2;
    }
  }
  config.engine.dispatchers = 1;
  config.engine.intra_query_threads = 0;
  config.engine.queue_capacity = 256;
  // A real registry so kStats replies (and the router's /fleetz page) carry
  // engine counters and latency histograms instead of an empty snapshot.
  mmir::obs::MetricsRegistry metrics;
  config.engine.metrics = &metrics;

  const auto pool = build_pool();
  std::vector<mmir::GeneratedArchive> ties;
  for (const mmir::ScenarioConfig& cfg : mmir::tie_parity_scenarios()) {
    ties.push_back(mmir::generate_scenario(cfg));
  }
  mmir::net::ShardServer server(config);
  for (std::size_t a = 0; a < pool.size(); ++a) {
    server.register_archive(a + 1, pool[a]->archive.get(), pool[a]->ranges);
  }
  for (std::size_t a = 0; a < ties.size(); ++a) {
    const auto ranges = ties[a].tiled().band_ranges();
    server.register_archive(pool.size() + a + 1, ties[a].archive.get(),
                            std::vector<mmir::Interval>(ranges.begin(), ranges.end()));
  }
  if (!server.start()) {
    std::fprintf(stderr, "mmir_shard_server: cannot bind port %u\n",
                 static_cast<unsigned>(config.port));
    return 1;
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  std::printf("port=%d\n", server.port());
  std::fflush(stdout);
  std::fprintf(stderr, "mmir_shard_server: serving %zu archives on port %d\n", pool.size(),
               server.port());

  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  server.stop();
  std::fprintf(stderr, "mmir_shard_server: served %llu queries, exiting\n",
               static_cast<unsigned long long>(server.queries_served()));
  return 0;
}
