/**
 * @file
 * trapjit-fuzz: the multi-threaded differential fuzz driver.
 *
 * Sweeps generated workloads through every execution engine and every
 * pipeline arm (testing/fuzz/fuzz_farm.h), printing throughput and a
 * minimized repro line for any divergence.  Exit status is 0 only for
 * a clean sweep — CI runs this with a time budget and fixed seeds.
 *
 *   trapjit-fuzz [--cases N] [--seed S] [--threads N]
 *                [--profile NAME[,NAME...]] [--arm LABEL[,LABEL...]]
 *                [--time-budget SECONDS] [--json FILE]
 *                [--cache-dir DIR]
 *                [--no-native] [--no-tiered]
 *                [--no-service] [-v]
 *   trapjit-fuzz --repro seed=S,profile=P,arm=A
 *   trapjit-fuzz --mutate MUTATION   (exit 0 iff the bug is CAUGHT)
 *
 * Environment fallbacks (flags win): TRAPJIT_FUZZ_SEED,
 * TRAPJIT_FUZZ_CASES, TRAPJIT_FUZZ_THREADS, TRAPJIT_FUZZ_PROFILE.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "testing/fuzz/fuzz_farm.h"

namespace trapjit
{
namespace
{

void
usage()
{
    std::cout
        << "usage: trapjit-fuzz [options]\n"
        << "  --cases N            (seed, profile) cases; each is\n"
        << "                       crossed with every arm (default 500)\n"
        << "  --seed S             first seed (default 1)\n"
        << "  --threads N          mutator threads (default 4)\n"
        << "  --profile P[,P...]   profiles: " << workloadProfileNames()
        << ",random\n"
        << "  --arm A[,A...]       arms: " << fuzzArmLabels() << "\n"
        << "  --time-budget SEC    stop claiming cases after SEC\n"
        << "  --json FILE          write a BENCH-style JSON report\n"
        << "  --cache-dir DIR      persistent-cache soundness oracle:\n"
        << "                       compile through an on-disk cache in\n"
        << "                       DIR and replay every case warm; any\n"
        << "                       pipeline compile or IR byte diff on\n"
        << "                       the replay is a divergence\n"
        << "  --no-native          skip the fast-vs-native oracle\n"
        << "  --no-tiered          skip the fast-vs-tiered oracle\n"
        << "                       (mid-case promotion at threshold 2)\n"
        << "  --no-service         sequential Compiler per case\n"
        << "  --repro seed=S,profile=P,arm=A   rerun one case\n"
        << "  --mutate NAME        inject a known optimizer bug and\n"
        << "                       expect the farm to catch it; one of\n"
        << "                       " << mutationNames() << "\n"
        << "  -v                   progress to stderr\n";
}

std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

bool
parseRepro(const std::string &spec, uint64_t &seed, std::string &profile,
           std::string &arm)
{
    bool haveSeed = false, haveArm = false;
    profile = "mixed";
    for (const std::string &part : splitCommas(spec)) {
        size_t eq = part.find('=');
        if (eq == std::string::npos)
            return false;
        std::string key = part.substr(0, eq);
        std::string value = part.substr(eq + 1);
        if (key == "seed") {
            seed = std::strtoull(value.c_str(), nullptr, 10);
            haveSeed = true;
        } else if (key == "profile") {
            profile = value;
        } else if (key == "arm") {
            arm = value;
            haveArm = true;
        } else {
            return false;
        }
    }
    return haveSeed && haveArm;
}

void
writeJson(const std::string &path, const FuzzResult &result,
          const FuzzOptions &opts)
{
    std::ofstream out(path);
    if (!out) {
        std::cerr << "trapjit-fuzz: cannot write " << path << "\n";
        return;
    }
    const FuzzStats &s = result.stats;
    out << "{\n"
        << "  \"bench\": \"fuzz\",\n"
        << "  \"cases\": " << s.casesRun << ",\n"
        << "  \"arms\": "
        << (opts.arms.empty() ? fuzzArms().size() : opts.arms.size())
        << ",\n"
        << "  \"threads\": " << opts.threads << ",\n"
        << "  \"modules_built\": " << s.modulesBuilt << ",\n"
        << "  \"functions_compiled\": " << s.functionsCompiled << ",\n"
        << "  \"native_comparisons\": " << s.nativeComparisons << ",\n"
        << "  \"tiered_comparisons\": " << s.tieredComparisons << ",\n"
        << "  \"persistent_comparisons\": " << s.persistentComparisons
        << ",\n"
        << "  \"traps_taken\": " << s.trapsTaken << ",\n"
        << "  \"instructions\": " << s.instructionsExecuted << ",\n"
        << "  \"audit_findings\": " << s.auditFindings << ",\n"
        << "  \"divergences\": " << result.divergences.size() << ",\n"
        << "  \"elapsed_seconds\": " << s.elapsedSeconds << ",\n"
        << "  \"cases_per_second\": " << s.casesPerSecond() << ",\n"
        << "  \"traps_per_second\": " << s.trapsPerSecond() << ",\n"
        << "  \"compiles_per_second\": " << s.compilesPerSecond() << "\n"
        << "}\n";
}

void
printSummary(const FuzzResult &result)
{
    const FuzzStats &s = result.stats;
    std::printf("trapjit-fuzz: %llu cases in %.2fs "
                "(%.0f cases/s, %.0f traps/s, %.0f compiles/s)\n",
                static_cast<unsigned long long>(s.casesRun),
                s.elapsedSeconds, s.casesPerSecond(), s.trapsPerSecond(),
                s.compilesPerSecond());
    std::printf("  modules=%llu compiled=%llu native-cmp=%llu "
                "tiered-cmp=%llu persistent-cmp=%llu traps=%llu "
                "instructions=%llu\n",
                static_cast<unsigned long long>(s.modulesBuilt),
                static_cast<unsigned long long>(s.functionsCompiled),
                static_cast<unsigned long long>(s.nativeComparisons),
                static_cast<unsigned long long>(s.tieredComparisons),
                static_cast<unsigned long long>(
                    s.persistentComparisons),
                static_cast<unsigned long long>(s.trapsTaken),
                static_cast<unsigned long long>(s.instructionsExecuted));
    for (const FuzzDivergence &d : result.divergences)
        std::printf("  DIVERGENCE %s %s\n", d.reproLine().c_str(),
                    d.message.c_str());
}

uint64_t
envU64(const char *name, uint64_t fallback)
{
    const char *v = std::getenv(name);
    return v != nullptr && *v != '\0'
               ? std::strtoull(v, nullptr, 10)
               : fallback;
}

int
run(int argc, char **argv)
{
    FuzzOptions opts;
    opts.cases = static_cast<int>(envU64("TRAPJIT_FUZZ_CASES", 500));
    opts.firstSeed = envU64("TRAPJIT_FUZZ_SEED", 1);
    opts.threads = static_cast<int>(envU64("TRAPJIT_FUZZ_THREADS", 4));
    if (const char *p = std::getenv("TRAPJIT_FUZZ_PROFILE");
        p != nullptr && *p != '\0')
        opts.profiles = splitCommas(p);

    bool verbose = false;
    bool casesExplicit = false;
    bool reproMode = false;
    uint64_t reproSeed = 0;
    std::string reproProfile, reproArm, jsonPath, mutateName;

    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "trapjit-fuzz: " << flag
                          << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (flag == "--cases") {
            opts.cases = std::atoi(value().c_str());
            casesExplicit = true;
        } else if (flag == "--seed") {
            opts.firstSeed = std::strtoull(value().c_str(), nullptr, 10);
        } else if (flag == "--threads") {
            opts.threads = std::atoi(value().c_str());
        } else if (flag == "--profile") {
            opts.profiles = splitCommas(value());
        } else if (flag == "--arm") {
            for (const std::string &label : splitCommas(value())) {
                int arm = findFuzzArm(label);
                if (arm < 0) {
                    std::cerr << "trapjit-fuzz: unknown arm '" << label
                              << "' (arms: " << fuzzArmLabels() << ")\n";
                    return 2;
                }
                opts.arms.push_back(arm);
            }
        } else if (flag == "--time-budget") {
            opts.timeBudgetSeconds = std::atof(value().c_str());
        } else if (flag == "--json") {
            jsonPath = value();
        } else if (flag == "--cache-dir") {
            opts.cacheDir = value();
        } else if (flag == "--no-native") {
            opts.useNativeOracle = false;
        } else if (flag == "--no-tiered") {
            opts.useTieredOracle = false;
        } else if (flag == "--no-service") {
            opts.useService = false;
        } else if (flag == "--repro") {
            reproMode = true;
            if (!parseRepro(value(), reproSeed, reproProfile,
                            reproArm)) {
                std::cerr << "trapjit-fuzz: --repro wants "
                             "seed=S,profile=P,arm=A\n";
                return 2;
            }
        } else if (flag == "--mutate") {
            mutateName = value();
            opts.mutation = mutationFromName(mutateName);
            if (opts.mutation == NullCheckMutation::None) {
                std::cerr << "trapjit-fuzz: unknown mutation '"
                          << mutateName
                          << "' (one of: " << mutationNames() << ")\n";
                return 2;
            }
        } else if (flag == "-v" || flag == "--verbose") {
            verbose = true;
        } else if (flag == "--help" || flag == "-h") {
            usage();
            return 0;
        } else {
            std::cerr << "trapjit-fuzz: unknown flag " << flag << "\n";
            usage();
            return 2;
        }
    }

    for (const std::string &p : opts.profiles) {
        if (p != kRandomProgramProfile &&
            findWorkloadProfile(p) == nullptr) {
            std::cerr << "trapjit-fuzz: unknown profile '" << p
                      << "' (profiles: " << workloadProfileNames()
                      << ",random)\n";
            return 2;
        }
    }

    if (verbose)
        opts.log = [](const std::string &line) {
            std::cerr << line << "\n";
        };

    // Mutation mode compiles sequentially per worker; a targeted sweep
    // of a few dozen seeds catches every known mutation in seconds.
    if (opts.mutation != NullCheckMutation::None && !casesExplicit)
        opts.cases = 40;

    if (reproMode) {
        int arm = findFuzzArm(reproArm);
        if (arm < 0) {
            std::cerr << "trapjit-fuzz: unknown arm '" << reproArm
                      << "' (arms: " << fuzzArmLabels() << ")\n";
            return 2;
        }
        std::printf("trapjit-fuzz: rerunning seed=%llu profile=%s "
                    "arm=%s\n",
                    static_cast<unsigned long long>(reproSeed),
                    reproProfile.c_str(), reproArm.c_str());
        FuzzResult result =
            rerunFuzzCase(reproSeed, reproProfile, reproArm, opts);
        printSummary(result);
        if (result.clean()) {
            std::printf("trapjit-fuzz: case is clean\n");
            return 0;
        }
        return 1;
    }

    FuzzResult result = runFuzzFarm(opts);
    printSummary(result);
    if (!jsonPath.empty())
        writeJson(jsonPath, result, opts);

    if (opts.mutation != NullCheckMutation::None) {
        // Inverted verdict: a mutated compiler surviving a clean sweep
        // means the whole detection stack missed a real bug.
        if (result.clean()) {
            std::printf("trapjit-fuzz: mutation %s was NOT caught\n",
                        mutateName.c_str());
            return 1;
        }
        std::printf("trapjit-fuzz: mutation %s caught (%zu finding(s)); "
                    "first repro: %s\n",
                    mutateName.c_str(), result.divergences.size(),
                    result.divergences.front().reproLine().c_str());
        return 0;
    }

    return result.clean() ? 0 : 1;
}

} // namespace
} // namespace trapjit

int
main(int argc, char **argv)
{
    return trapjit::run(argc, argv);
}
