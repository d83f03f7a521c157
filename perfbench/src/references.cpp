#include "references.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "bench_util.hpp"

namespace perfbench {
namespace {

int64_t size_of(const ps::IntEnv& sizes, const char* name) {
  auto it = sizes.find(name);
  if (it == sizes.end())
    throw std::invalid_argument(std::string("missing size ") + name);
  return it->second;
}

std::vector<double> random_reals(Rng& rng, size_t n) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

// Figure 1: every neighbour from the previous grid (two buffers).
std::vector<double> jacobi(std::vector<double> a, int64_t M, int64_t maxK) {
  const int64_t n = M + 2;
  std::vector<double> b(a.size());
  for (int64_t k = 2; k <= maxK; ++k) {
    for (int64_t i = 0; i < n; ++i)
      for (int64_t j = 0; j < n; ++j) {
        const int64_t c = i * n + j;
        if (i == 0 || j == 0 || i == M + 1 || j == M + 1)
          b[c] = a[c];
        else
          b[c] = (a[c - 1] + a[c - n] + a[c + 1] + a[c + n]) / 4;
      }
    std::swap(a, b);
  }
  return a;
}

// Section 4: the J-1 and I-1 neighbours come from the current sweep,
// which a single in-place grid swept in row-major order gives exactly.
std::vector<double> gauss_seidel(std::vector<double> a, int64_t M,
                                 int64_t maxK) {
  const int64_t n = M + 2;
  for (int64_t k = 2; k <= maxK; ++k)
    for (int64_t i = 1; i <= M; ++i)
      for (int64_t j = 1; j <= M; ++j) {
        const int64_t c = i * n + j;
        a[c] = (a[c - 1] + a[c - n] + a[c + 1] + a[c + n]) / 4;
      }
  return a;
}

std::vector<double> heat1d(std::vector<double> u, int64_t N, int64_t steps,
                           double r) {
  std::vector<double> next(u.size());
  for (int64_t t = 2; t <= steps; ++t) {
    for (int64_t x = 0; x <= N + 1; ++x) {
      if (x == 0 || x == N + 1)
        next[x] = u[x];
      else
        next[x] = u[x] + r * (u[x - 1] - 2.0 * u[x] + u[x + 1]);
    }
    std::swap(u, next);
  }
  return u;
}

std::vector<double> chain(const std::vector<double>& x) {
  std::vector<double> y(x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    double a = x[i] * 2.0;
    double b = a + 1.0;
    double c = b * b;
    y[i] = c - a;
  }
  return y;
}

std::vector<double> jac3(std::vector<double> g, int64_t M, int64_t maxK) {
  const int64_t n = M + 2;
  const int64_t si = n * n;
  const int64_t sj = n;
  std::vector<double> next(g.size());
  for (int64_t k = 2; k <= maxK; ++k) {
    for (int64_t i = 0; i < n; ++i)
      for (int64_t j = 0; j < n; ++j)
        for (int64_t l = 0; l < n; ++l) {
          const int64_t c = i * si + j * sj + l;
          if (i == 0 || j == 0 || l == 0 || i == M + 1 || j == M + 1 ||
              l == M + 1)
            next[c] = g[c];
          else
            next[c] = (g[c - si] + g[c + si] + g[c - sj] + g[c + sj] +
                       g[c - 1] + g[c + 1]) /
                      6;
        }
    std::swap(g, next);
  }
  return g;
}

std::vector<double> sor(std::vector<double> x, int64_t n, int64_t s,
                        double omega) {
  std::vector<double> next(x.size());
  for (int64_t t = 2; t <= s; ++t) {
    for (int64_t i = 0; i <= n; ++i) {
      if (i == 0 || i == n)
        next[i] = x[i];
      else
        next[i] = (1.0 - omega) * x[i] + omega * (x[i - 1] + x[i + 1]) / 2;
    }
    std::swap(x, next);
  }
  return x;
}

std::vector<double> prefix(const std::vector<double>& x) {
  std::vector<double> p(x.size());
  for (size_t i = 0; i < x.size(); ++i) p[i] = i == 0 ? x[i] : p[i - 1] + x[i];
  return p;
}

std::vector<double> pingpong(const std::vector<double>& x, int64_t s) {
  std::vector<double> a = x;
  std::vector<double> b = x;
  for (int64_t t = 2; t <= s; ++t) {
    std::vector<double> na(a.size());
    for (size_t i = 0; i < a.size(); ++i) na[i] = b[i] * 0.5 + a[i] * 0.5;
    b = a;
    a = std::move(na);
  }
  std::vector<double> y(x.size());
  for (size_t i = 0; i < y.size(); ++i) y[i] = a[i] + b[i];
  return y;
}

std::vector<double> tri(const std::vector<double>& x, int64_t n) {
  std::vector<double> y(x.size());
  for (int64_t i = 0; i <= n; ++i)
    for (int64_t j = 0; j <= n; ++j) {
      const int64_t c = i * (n + 1) + j;
      y[c] = j > i ? 0.0 : x[c];
    }
  return y;
}

std::vector<double> intgrid(const std::vector<double>& seed, int64_t n) {
  const int64_t w = n + 1;
  std::vector<int64_t> cnt(seed.size());
  for (int64_t i = 0; i <= n; ++i)
    for (int64_t j = 0; j <= n; ++j) {
      const int64_t c = i * w + j;
      const auto s = static_cast<int64_t>(seed[c]);
      cnt[c] = (i == 0 || j == 0)
                   ? s
                   : s + cnt[c - w] + cnt[c - 1] - cnt[c - w - 1];
    }
  return {cnt.begin(), cnt.end()};
}

// Records are stored field by field: p = (m, v).
Arrays particles(const std::vector<double>& p, const std::vector<double>& scale) {
  std::vector<double> energy(scale.size());
  for (size_t i = 0; i < scale.size(); ++i)
    energy[i] = p[0] * scale[i] + p[1] * 0.5;
  return {{"energy", energy}, {"pick", p}};
}

// x[1.5] = x0 seeds row 1 (the real subscript truncates).
std::vector<double> seedreal(std::vector<double> x, int64_t n, int64_t s) {
  std::vector<double> next(x.size());
  for (int64_t t = 2; t <= s; ++t) {
    for (int64_t i = 0; i <= n; ++i) {
      if (i == 0 || i == n)
        next[i] = x[i];
      else
        next[i] = (x[i - 1] + x[i + 1]) / 2;
    }
    std::swap(x, next);
  }
  return x;
}

}  // namespace

const std::vector<std::string>& corpus_names() {
  static const std::vector<std::string> names = {
      "jacobi", "gauss_seidel", "heat1d",  "chain",   "jac3",      "sor",
      "prefix", "pingpong",     "tri",     "intgrid", "particles", "seedreal"};
  return names;
}

Problem make_problem(const std::string& module, const ps::IntEnv& sizes,
                     uint64_t seed) {
  // Mix the module name into the seed so modules of one round differ.
  uint64_t mixed = seed;
  for (char c : module) mixed = mixed * 131 + static_cast<unsigned char>(c);
  Rng rng(mixed);
  Problem p;
  p.module = module;
  p.ints = sizes;
  if (module == "jacobi" || module == "gauss_seidel") {
    const int64_t M = size_of(sizes, "M");
    const int64_t maxK = size_of(sizes, "maxK");
    auto a = random_reals(rng, static_cast<size_t>((M + 2) * (M + 2)));
    p.expected["newA"] =
        module == "jacobi" ? jacobi(a, M, maxK) : gauss_seidel(a, M, maxK);
    p.inputs["InitialA"] = std::move(a);
  } else if (module == "heat1d") {
    const int64_t N = size_of(sizes, "N");
    const double r = rng.uniform(0.05, 0.25);
    p.reals["r"] = r;
    auto u = random_reals(rng, static_cast<size_t>(N + 2));
    p.expected["uOut"] = heat1d(u, N, size_of(sizes, "steps"), r);
    p.inputs["u0"] = std::move(u);
  } else if (module == "chain") {
    auto x = random_reals(rng, static_cast<size_t>(size_of(sizes, "N")));
    p.expected["y"] = chain(x);
    p.inputs["x"] = std::move(x);
  } else if (module == "jac3") {
    const int64_t M = size_of(sizes, "M");
    auto g = random_reals(rng, static_cast<size_t>((M + 2) * (M + 2) * (M + 2)));
    p.expected["gOut"] = jac3(g, M, size_of(sizes, "maxK"));
    p.inputs["g0"] = std::move(g);
  } else if (module == "sor") {
    const int64_t n = size_of(sizes, "n");
    const double omega = rng.uniform(1.1, 1.7);
    p.reals["omega"] = omega;
    auto x = random_reals(rng, static_cast<size_t>(n + 1));
    p.expected["xOut"] = sor(x, n, size_of(sizes, "s"), omega);
    p.inputs["x0"] = std::move(x);
  } else if (module == "prefix") {
    auto x = random_reals(rng, static_cast<size_t>(size_of(sizes, "n") + 1));
    p.expected["p"] = prefix(x);
    p.inputs["x"] = std::move(x);
  } else if (module == "pingpong") {
    auto x = random_reals(rng, static_cast<size_t>(size_of(sizes, "n") + 1));
    p.expected["y"] = pingpong(x, size_of(sizes, "s"));
    p.inputs["x"] = std::move(x);
  } else if (module == "tri") {
    const int64_t n = size_of(sizes, "n");
    auto x = random_reals(rng, static_cast<size_t>((n + 1) * (n + 1)));
    p.expected["y"] = tri(x, n);
    p.inputs["x"] = std::move(x);
  } else if (module == "intgrid") {
    const int64_t n = size_of(sizes, "n");
    std::vector<double> seed_grid(static_cast<size_t>((n + 1) * (n + 1)));
    for (double& v : seed_grid) v = static_cast<double>(rng.range(-48, 48));
    p.expected["cnt"] = intgrid(seed_grid, n);
    p.inputs["seed"] = std::move(seed_grid);
  } else if (module == "particles") {
    const int64_t n = size_of(sizes, "n");
    std::vector<double> rec = {rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)};
    auto scale = random_reals(rng, static_cast<size_t>(n + 1));
    p.expected = particles(rec, scale);
    p.inputs["p"] = std::move(rec);
    p.inputs["scale"] = std::move(scale);
  } else if (module == "seedreal") {
    const int64_t n = size_of(sizes, "n");
    auto x = random_reals(rng, static_cast<size_t>(n + 1));
    p.expected["xOut"] = seedreal(x, n, size_of(sizes, "s"));
    p.inputs["x0"] = std::move(x);
  } else {
    throw std::invalid_argument("unknown module " + module);
  }
  return p;
}

std::string compare_output(const std::string& label,
                           const std::vector<double>& want,
                           std::span<const double> got) {
  if (want.size() != got.size()) {
    std::ostringstream os;
    os << label << ": " << got.size() << " elements, reference has "
       << want.size();
    return os.str();
  }
  for (size_t i = 0; i < want.size(); ++i) {
    const double limit = kRelTolerance * std::max(1.0, std::fabs(want[i]));
    // Written so that a NaN on either side fails.
    if (!(std::fabs(got[i] - want[i]) <= limit)) {
      std::ostringstream os;
      os.precision(17);
      os << label << "[" << i << "] = " << got[i] << ", reference "
         << want[i];
      return os.str();
    }
  }
  return {};
}

}  // namespace perfbench
