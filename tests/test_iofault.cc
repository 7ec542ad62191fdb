/**
 * @file
 * Host-I/O chaos-layer tests (support/iofault.hh + the campaign
 * hardening it forced, DESIGN.md §14).
 *
 * Three rings, inside out: the fault-spec grammar and injector
 * counting; the durable io:: wrappers under every injectable fault
 * (ENOSPC mid-write, EIO, short read/write, failed fsync, failed and
 * *lying* rename, torn tmp files, stale mtimes); and the campaign
 * acceptance drills -- a fleet with any single fault injected at any
 * scheduled point, and a randomized-schedule chaos fuzz over full
 * kill/resume campaigns, must still produce a stats dump
 * byte-identical to the clean run, and a fence-stale .result must be
 * provably rejected at the merge.
 *
 * The drill tests drive the real upc780_campaign binary (path baked
 * in as UPC780_CAMPAIGN_BIN) so fork/exec shards suffer the faults
 * exactly as a production fleet would.
 */

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "driver/campaign.hh"
#include "driver/checkpoint.hh"
#include "support/iofault.hh"
#include "support/random.hh"
#include "workload/experiments.hh"

using namespace vax;

namespace
{

std::string
scratchDir(const char *name)
{
    std::string dir = ::testing::TempDir() + "upc780_iofault_" +
        name + "_" + std::to_string(static_cast<long>(::getpid()));
    std::string cmd = "rm -rf '" + dir + "'";
    (void)!std::system(cmd.c_str());
    return dir;
}

std::string
campaignBin()
{
    if (const char *env = std::getenv("UPC780_CAMPAIGN_BIN"))
        return env;
#ifdef UPC780_CAMPAIGN_BIN
    return UPC780_CAMPAIGN_BIN;
#else
    return "";
#endif
}

/** Run the campaign binary, capturing stdout+stderr into @p log (the
 *  fence tests grep it for the rejection warning).  @return the raw
 *  wait() status. */
int
runTool(const std::string &args, const std::string &log = "")
{
    std::string sink = log.empty() ? "/dev/null" : log;
    // Appended, not "'" + campaignBin(): prepending to a temporary
    // trips GCC 12's -Wrestrict false positive (GCC bug 105651).
    std::string cmd = "'";
    cmd += campaignBin();
    cmd += "' " + args + " > '" + sink + "' 2>&1";
    return std::system(cmd.c_str());
}

/** Same small fleet geometry as the PR-8 drills: 2 shards, 5 jobs of
 *  6 chunks each, fast heartbeats/backoff. */
std::string
drillArgs(const std::string &spool)
{
    return "--spool '" + spool + "' --shards 2 --cycles 90000 "
           "--checkpoint-interval 15000 --heartbeat-interval 0.2 "
           "--heartbeat-timeout 5 --backoff-base 0.05 "
           "--backoff-cap 0.2";
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** The clean run's stats dump, computed once per process. */
const std::string &
referenceStatsJson()
{
    static std::string bytes = [] {
        std::string dir = scratchDir("reference");
        std::string json = dir + ".json";
        int st = runTool(drillArgs(dir) + " --in-process "
                         "--stats-json '" + json + "'");
        EXPECT_TRUE(WIFEXITED(st) && WEXITSTATUS(st) == 0);
        std::string b = slurp(json);
        EXPECT_FALSE(b.empty());
        return b;
    }();
    return bytes;
}

/** A CampaignConfig matching drillArgs (for spool-path helpers). */
CampaignConfig
drillConfig(const std::string &spool)
{
    CampaignConfig cfg;
    cfg.spool = spool;
    cfg.cycles = 90'000;
    cfg.intervalCycles = 15'000;
    return cfg;
}

/** Build a mutable argv for CampaignConfig::parseFlags. */
struct Argv
{
    explicit Argv(std::initializer_list<const char *> args)
    {
        strings.emplace_back("upc780_campaign");
        for (const char *a : args)
            strings.emplace_back(a);
        for (std::string &s : strings)
            ptrs.push_back(s.data());
        ptrs.push_back(nullptr);
        argc = static_cast<int>(strings.size());
    }

    std::vector<std::string> strings;
    std::vector<char *> ptrs;
    int argc;

    CampaignConfig parse()
    {
        return CampaignConfig::parseFlags(&argc, ptrs.data());
    }
};

/** Write raw bytes (fuzz payloads bypass the durable writers). */
void
writeRaw(const std::string &path, const std::string &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
              bytes.size());
    std::fclose(f);
}

} // anonymous namespace

// ---------------------------------------------------------------
// Fault-spec grammar: parse, format, fatal on typos.
// ---------------------------------------------------------------

TEST(IoFaultSpec, ParseFormatRoundTrip)
{
    io::FaultPlan p =
        io::FaultPlan::parse("enospc@3~.ckpt,renamelie@1,eio@7~job0");
    ASSERT_EQ(p.rules.size(), 3u);
    EXPECT_EQ(p.rules[0].kind, io::FaultKind::Enospc);
    EXPECT_EQ(p.rules[0].nth, 3u);
    EXPECT_EQ(p.rules[0].match, ".ckpt");
    EXPECT_EQ(p.rules[1].kind, io::FaultKind::RenameLie);
    EXPECT_EQ(p.rules[1].nth, 1u);
    EXPECT_TRUE(p.rules[1].match.empty());
    EXPECT_EQ(p.rules[2].kind, io::FaultKind::Eio);
    EXPECT_EQ(p.format(), "enospc@3~.ckpt,renamelie@1,eio@7~job0");

    // format() is the canonical text: parsing it reproduces the plan.
    io::FaultPlan q = io::FaultPlan::parse(p.format());
    EXPECT_EQ(q.format(), p.format());
}

TEST(IoFaultSpec, RandomizedIsDeterministicPerSeed)
{
    io::FaultPlan a = io::FaultPlan::randomized(42);
    io::FaultPlan b = io::FaultPlan::randomized(42);
    io::FaultPlan c = io::FaultPlan::randomized(43);
    EXPECT_FALSE(a.rules.empty());
    EXPECT_LE(a.rules.size(), 3u);
    EXPECT_EQ(a.format(), b.format());
    // Not a hard guarantee per pair of seeds, but these two differ.
    EXPECT_NE(a.format(), c.format());
    // rand=SEED in a spec expands to the same schedule.
    EXPECT_EQ(io::FaultPlan::parse("rand=42").format(), a.format());
}

TEST(IoFaultSpec, TyposAreFatal)
{
    EXPECT_DEATH(io::FaultPlan::parse("enopsc@1"), "unknown kind");
    EXPECT_DEATH(io::FaultPlan::parse("enospc"), "malformed entry");
    EXPECT_DEATH(io::FaultPlan::parse("enospc@0"),
                 "not a positive operation index");
    EXPECT_DEATH(io::FaultPlan::parse("enospc@2junk"),
                 "not a positive operation index");
    EXPECT_DEATH(io::FaultPlan::parse("eio@1~"), "empty ~substr");
    EXPECT_DEATH(io::FaultPlan::parse("rand=notaseed"),
                 "not a positive operation index");
}

// ---------------------------------------------------------------
// Injector: Nth-op counting, path filters, one-shot delivery.
// ---------------------------------------------------------------

TEST(IoFaultInjector, FiresAtNthMatchingOpOnce)
{
    io::FaultInjector inj(io::FaultPlan::parse("enospc@3"));
    EXPECT_EQ(inj.check(io::OpClass::Write, "a"), io::FaultKind::None);
    // Reads do not advance a write-class rule.
    EXPECT_EQ(inj.check(io::OpClass::Read, "a"), io::FaultKind::None);
    EXPECT_EQ(inj.check(io::OpClass::Write, "b"), io::FaultKind::None);
    EXPECT_EQ(inj.check(io::OpClass::Write, "c"),
              io::FaultKind::Enospc);
    // One-shot: the stream runs clean afterwards.
    EXPECT_EQ(inj.check(io::OpClass::Write, "d"), io::FaultKind::None);
    io::FaultStats st = inj.stats();
    EXPECT_EQ(st.delivered, 1u);
    EXPECT_EQ(st.opsSeen, 5u);
}

TEST(IoFaultInjector, PathFilterCountsOnlyMatches)
{
    io::FaultInjector inj(io::FaultPlan::parse("rename@2~.result"));
    EXPECT_EQ(inj.check(io::OpClass::Rename, "x/job000.result"),
              io::FaultKind::None);
    EXPECT_EQ(inj.check(io::OpClass::Rename, "x/job000"),
              io::FaultKind::None); // no match: not counted
    EXPECT_EQ(inj.check(io::OpClass::Rename, "x/job001.result"),
              io::FaultKind::RenameFail);
}

TEST(IoFaultInjector, UninstalledInjectorIsInert)
{
    // No injector installed: wrappers run clean (the golden path).
    ASSERT_EQ(io::faultInjector(), nullptr);
    std::string dir = scratchDir("inert");
    ASSERT_EQ(::mkdir(dir.c_str(), 0777), 0);
    EXPECT_TRUE(io::atomicWriteText(dir + "/f", "hello"));
    std::string back;
    EXPECT_TRUE(io::readFileText(dir + "/f", &back));
    EXPECT_EQ(back, "hello");
}

// ---------------------------------------------------------------
// Durable wrappers under each fault kind.
// ---------------------------------------------------------------

TEST(IoWrappers, EnospcFailsCleanlyAndReportsErrno)
{
    std::string dir = scratchDir("enospc");
    ASSERT_EQ(::mkdir(dir.c_str(), 0777), 0);
    io::FaultInjector inj(io::FaultPlan::parse("enospc@1"));
    io::ScopedInjector scoped(&inj);
    std::string payload(4096, 'x');
    EXPECT_FALSE(io::atomicWriteText(dir + "/f", payload));
    // The bool-only caller can still learn *how* it failed -- the
    // campaign's degraded checkpoint mode depends on this.
    EXPECT_EQ(io::lastStatus().err, ENOSPC);
    // Nothing visible under the real name, no tmp litter.
    EXPECT_FALSE(fileExists(dir + "/f"));
    std::string back;
    EXPECT_FALSE(io::readFileText(dir + "/f", &back));
}

TEST(IoWrappers, ShortWriteIsAbsorbedByTheWriteLoop)
{
    std::string dir = scratchDir("shortw");
    ASSERT_EQ(::mkdir(dir.c_str(), 0777), 0);
    io::FaultInjector inj(io::FaultPlan::parse("shortwrite@1"));
    io::ScopedInjector scoped(&inj);
    std::string payload(8192, 'y');
    // A lying write(2) accepts half; the loop must finish the rest.
    EXPECT_TRUE(io::atomicWriteText(dir + "/f", payload));
    EXPECT_EQ(inj.stats().delivered, 1u);
    std::string back;
    ASSERT_TRUE(io::readFileText(dir + "/f", &back));
    EXPECT_EQ(back, payload);
}

TEST(IoWrappers, TornTmpLeavesNoVisibleFile)
{
    std::string dir = scratchDir("torn");
    ASSERT_EQ(::mkdir(dir.c_str(), 0777), 0);
    // Establish old bytes, then tear the rewrite mid-tmp.
    ASSERT_TRUE(io::atomicWriteText(dir + "/f", "old"));
    io::FaultInjector inj(io::FaultPlan::parse("torn@1"));
    io::ScopedInjector scoped(&inj);
    EXPECT_FALSE(io::atomicWriteText(dir + "/f", "newnewnew"));
    // The contract: the real name holds the OLD bytes, untouched.
    std::string back;
    ASSERT_TRUE(io::readFileText(dir + "/f", &back));
    EXPECT_EQ(back, "old");
}

TEST(IoWrappers, FsyncFailureFailsTheWrite)
{
    std::string dir = scratchDir("fsync");
    ASSERT_EQ(::mkdir(dir.c_str(), 0777), 0);
    io::FaultInjector inj(io::FaultPlan::parse("fsync@1"));
    io::ScopedInjector scoped(&inj);
    EXPECT_FALSE(io::atomicWriteText(dir + "/f", "bytes"));
    EXPECT_STREQ(io::lastStatus().stage, "fsync");
    EXPECT_FALSE(fileExists(dir + "/f"));
}

TEST(IoWrappers, RenameFailAndRenameLie)
{
    std::string dir = scratchDir("rename");
    ASSERT_EQ(::mkdir(dir.c_str(), 0777), 0);
    ASSERT_TRUE(io::atomicWriteText(dir + "/a", "payload"));

    io::FaultInjector fail(io::FaultPlan::parse("rename@1"));
    {
        io::ScopedInjector scoped(&fail);
        EXPECT_FALSE(io::renameFile(dir + "/a", dir + "/b"));
        // Failed for real: nothing moved.
        EXPECT_TRUE(fileExists(dir + "/a"));
        EXPECT_FALSE(fileExists(dir + "/b"));
    }

    io::FaultInjector lie(io::FaultPlan::parse("renamelie@1"));
    {
        io::ScopedInjector scoped(&lie);
        // The NFS ambiguity: reported failed, actually happened.
        EXPECT_FALSE(io::renameFile(dir + "/a", dir + "/b"));
        EXPECT_FALSE(fileExists(dir + "/a"));
        EXPECT_TRUE(fileExists(dir + "/b"));
    }
}

TEST(IoWrappers, ClaimByRenameSelfHealsALyingRename)
{
    std::string dir = scratchDir("claimlie");
    ASSERT_EQ(::mkdir(dir.c_str(), 0777), 0);
    std::string todo = dir + "/job000";
    ASSERT_TRUE(writeJobTokenFile(todo, JobToken()));
    io::FaultInjector inj(io::FaultPlan::parse("renamelie@1"));
    io::ScopedInjector scoped(&inj);
    // The rename "fails" but the token moved: the claimant must
    // recognize the win, or the token is stranded forever.
    EXPECT_EQ(claimByRename(todo, dir + "/job000.shard0"),
              ClaimOutcome::Won);
    EXPECT_TRUE(fileExists(dir + "/job000.shard0"));
}

TEST(IoWrappers, EioAndShortReadNeverTruncateSilently)
{
    std::string dir = scratchDir("reads");
    ASSERT_EQ(::mkdir(dir.c_str(), 0777), 0);
    ASSERT_TRUE(io::atomicWriteText(dir + "/f", "0123456789"));

    io::FaultInjector eio(io::FaultPlan::parse("eio@1"));
    {
        io::ScopedInjector scoped(&eio);
        std::string back;
        EXPECT_FALSE(io::readFileText(dir + "/f", &back));
        EXPECT_EQ(io::lastStatus().err, EIO);
    }

    io::FaultInjector shrt(io::FaultPlan::parse("shortread@1"));
    {
        io::ScopedInjector scoped(&shrt);
        std::string back;
        // EOF before the stat size is a *failure*, not a short buffer.
        EXPECT_FALSE(io::readFileText(dir + "/f", &back));
        EXPECT_STREQ(io::lastStatus().stage, "short");
    }

    std::string back;
    EXPECT_TRUE(io::readFileText(dir + "/f", &back));
    EXPECT_EQ(back, "0123456789");
}

TEST(IoWrappers, ReadFileCapRejectsOversizedFiles)
{
    std::string dir = scratchDir("cap");
    ASSERT_EQ(::mkdir(dir.c_str(), 0777), 0);
    ASSERT_TRUE(io::atomicWriteText(dir + "/f",
                                    std::string(2048, 'z')));
    std::string back;
    EXPECT_FALSE(io::readFileText(dir + "/f", &back, 1024));
    EXPECT_EQ(io::lastStatus().err, EFBIG);
    EXPECT_TRUE(io::readFileText(dir + "/f", &back, 4096));
}

TEST(IoWrappers, StaleMtimeMakesAgeAbsurd)
{
    std::string dir = scratchDir("stale");
    ASSERT_EQ(::mkdir(dir.c_str(), 0777), 0);
    ASSERT_TRUE(io::atomicWriteText(dir + "/f.hb", "pid 1\n"));
    EXPECT_LT(io::fileAgeSeconds(dir + "/f.hb"), 60.0);
    io::FaultInjector inj(io::FaultPlan::parse("stale@1~.hb"));
    io::ScopedInjector scoped(&inj);
    EXPECT_GT(io::fileAgeSeconds(dir + "/f.hb"), 1e5);
}

// ---------------------------------------------------------------
// Spool-token parse fuzzing: damaged tokens fail soft, never crash.
// ---------------------------------------------------------------

TEST(TokenFuzz, TruncatedTokenReadsAsFresh)
{
    std::string dir = scratchDir("trunc");
    ASSERT_EQ(::mkdir(dir.c_str(), 0777), 0);
    std::string path = dir + "/job000";
    writeRaw(path, "attempts 2\nnotbef");
    JobToken t;
    ASSERT_TRUE(readJobTokenFile(path, &t));
    EXPECT_EQ(t.attempts, 2u); // the parsed prefix survives
    EXPECT_DOUBLE_EQ(t.notBefore, 0.0);
}

TEST(TokenFuzz, NulEmbeddedTokenParsesPerLine)
{
    std::string dir = scratchDir("nul");
    ASSERT_EQ(::mkdir(dir.c_str(), 0777), 0);
    std::string path = dir + "/job000";
    std::string bytes = "attempts 1\n";
    bytes += std::string("garbage\0garbage", 15);
    bytes += "\nfence 4\n";
    writeRaw(path, bytes);
    JobToken t;
    ASSERT_TRUE(readJobTokenFile(path, &t));
    // The NUL kills only its own line; fields around it still parse.
    EXPECT_EQ(t.attempts, 1u);
    EXPECT_EQ(t.fence, 4u);
}

TEST(TokenFuzz, OverlongTokenIsRejectedNotSlurped)
{
    std::string dir = scratchDir("huge");
    ASSERT_EQ(::mkdir(dir.c_str(), 0777), 0);
    std::string path = dir + "/job000";
    writeRaw(path, "attempts 9\n" + std::string(256 * 1024, 'A'));
    JobToken t;
    // Reads as a fresh token (the job survives), but none of the
    // absurd payload is trusted -- attempts resets to 0.
    ASSERT_TRUE(readJobTokenFile(path, &t));
    EXPECT_EQ(t.attempts, 0u);
}

TEST(TokenFuzz, RandomGarbageNeverCrashesTheReader)
{
    std::string dir = scratchDir("fuzz");
    ASSERT_EQ(::mkdir(dir.c_str(), 0777), 0);
    std::string path = dir + "/job000";
    Rng rng(0xF022ED);
    for (int round = 0; round < 200; ++round) {
        size_t len = rng.below(300);
        std::string bytes;
        bytes.reserve(len);
        for (size_t i = 0; i < len; ++i)
            bytes += static_cast<char>(rng.below(256));
        writeRaw(path, bytes);
        JobToken t;
        ASSERT_TRUE(readJobTokenFile(path, &t));
    }
}

TEST(TokenFuzz, FenceRoundTripsThroughTheToken)
{
    std::string dir = scratchDir("fencetok");
    ASSERT_EQ(::mkdir(dir.c_str(), 0777), 0);
    std::string path = dir + "/job000";
    JobToken t;
    t.attempts = 1;
    t.fence = 17;
    ASSERT_TRUE(writeJobTokenFile(path, t));
    JobToken r;
    ASSERT_TRUE(readJobTokenFile(path, &r));
    EXPECT_EQ(r.fence, 17u);
}

TEST(TokenFuzz, FenceRegressedTokenIsMonotonizedByBump)
{
    std::string dir = scratchDir("fencereg");
    ASSERT_EQ(::mkdir(dir.c_str(), 0777), 0);
    ASSERT_EQ(::mkdir((dir + "/fence").c_str(), 0777), 0);
    CampaignConfig cfg;
    cfg.spool = dir;
    // High-water mark 5; a token regressed to 1 (hand-edited or
    // restored from backup) must bump past the MARK, not past 1.
    ASSERT_TRUE(writeFenceFile(campaignFencePath(cfg, 0), 5));
    JobToken tok;
    tok.fence = 1;
    EXPECT_EQ(bumpJobFence(cfg, 0, &tok), 6u);
    EXPECT_EQ(tok.fence, 6u);
    EXPECT_EQ(readFenceFile(campaignFencePath(cfg, 0)), 6u);
    // And a damaged fence file degrades to the token's own floor.
    writeRaw(campaignFencePath(cfg, 0), "gibberish");
    EXPECT_EQ(bumpJobFence(cfg, 0, &tok), 7u);
}

// ---------------------------------------------------------------
// Heartbeat liveness: the beat counter, not the mtime.
// ---------------------------------------------------------------

TEST(HeartbeatBeats, ContentsRoundTrip)
{
    std::string dir = scratchDir("hbinfo");
    ASSERT_EQ(::mkdir(dir.c_str(), 0777), 0);
    std::string hb = dir + "/shard0.hb";
    HeartbeatInfo info;
    EXPECT_FALSE(readHeartbeatFile(hb, &info)); // missing
    ASSERT_TRUE(heartbeatWrite(hb, 4321, 99, 2));
    ASSERT_TRUE(readHeartbeatFile(hb, &info));
    EXPECT_EQ(info.pid, 4321);
    EXPECT_EQ(info.seq, 99u);
    EXPECT_EQ(info.job, 2);
}

TEST(HeartbeatBeats, GarbledContentsFallBackToFalse)
{
    std::string dir = scratchDir("hbgarble");
    ASSERT_EQ(::mkdir(dir.c_str(), 0777), 0);
    std::string hb = dir + "/shard0.hb";
    writeRaw(hb, "not a heartbeat at all\n");
    HeartbeatInfo info;
    // Unparseable contents -> false; the supervisor then falls back
    // to the mtime age (and only then).
    EXPECT_FALSE(readHeartbeatFile(hb, &info));
    EXPECT_GE(heartbeatAgeSeconds(hb), 0.0);
}

TEST(HeartbeatBeats, StaleMtimeCannotFakeADeadShard)
{
    // The point of the beat counter: with contents readable, liveness
    // never consults the (injectable, lie-prone) mtime path.
    std::string dir = scratchDir("hbstale");
    ASSERT_EQ(::mkdir(dir.c_str(), 0777), 0);
    std::string hb = dir + "/shard0.hb";
    ASSERT_TRUE(heartbeatWrite(hb, 1, 7, 0));
    io::FaultInjector inj(io::FaultPlan::parse("stale@1~.hb"));
    io::ScopedInjector scoped(&inj);
    HeartbeatInfo info;
    ASSERT_TRUE(readHeartbeatFile(hb, &info));
    EXPECT_EQ(info.seq, 7u);
    // The stale rule never fired: no Stat op was consulted.
    EXPECT_EQ(inj.stats().delivered, 0u);
}

// ---------------------------------------------------------------
// Campaign acceptance: single faults, chaos fuzz, fence rejection.
// ---------------------------------------------------------------

TEST(CampaignChaos, AnySingleFaultStillByteIdentical)
{
    // One fault of every kind, aimed at the campaign's hot files, at
    // assorted scheduled points.  Each campaign must complete with
    // exit 0 and a stats dump byte-identical to the clean run.
    static const char *const specs[] = {
        "enospc@1~.ckpt",   // checkpoint pause + resume (degraded)
        "enospc@1~.result", // result write requeued with backoff
        "eio@1~.result",    // merge-side read fails soft
        "eio@1~job0",       // token read -> fresh attempt record
        "shortwrite@1~.ckpt", // absorbed by the write loop
        "shortread@1~.result", // torn-at-read -> re-run
        "fsync@1~.hb",      // heartbeat write fails once
        "fsync@2~.ckpt",    // checkpoint fsync fails, retried later
        "rename@1~.result", // result publish fails, requeued
        "rename@1~job0",    // token/claim rename fails (orphan heal)
        "renamelie@1~job0", // claim lie -> self-healed win
        "torn@1~.result",   // torn result tmp
        "torn@1~job0",      // torn token write
        "stale@1~.hb",      // stale mtime vs beat-counter liveness
    };
    for (const char *spec : specs) {
        std::string dir =
            scratchDir((std::string("single_") +
                        std::to_string(&spec - specs)).c_str());
        std::string json = dir + ".json";
        int st = runTool(drillArgs(dir) + " --io-faults '" +
                         std::string(spec) + "' --stats-json '" +
                         json + "'");
        EXPECT_TRUE(WIFEXITED(st) && WEXITSTATUS(st) == 0)
            << "spec " << spec << " wait status " << st;
        EXPECT_EQ(slurp(json), referenceStatsJson())
            << "stats diverged under " << spec;
    }
}

TEST(CampaignChaos, RandomizedSchedulesByteIdentical)
{
    // The randomized-schedule chaos fuzz: seed-derived fault
    // schedules across the whole fleet (supervisor clean), byte
    // identity required every time.  Failures replay exactly:
    // upc780_campaign --chaos-drill SEED on the same geometry.
    for (uint64_t seed : {11ull, 22ull, 33ull, 44ull}) {
        std::string dir =
            scratchDir(("chaos" + std::to_string(seed)).c_str());
        std::string json = dir + ".json";
        int st = runTool(drillArgs(dir) + " --chaos-drill " +
                         std::to_string(seed) + " --stats-json '" +
                         json + "'");
        EXPECT_TRUE(WIFEXITED(st) && WEXITSTATUS(st) == 0)
            << "seed " << seed << " wait status " << st;
        EXPECT_EQ(slurp(json), referenceStatsJson())
            << "stats diverged under chaos seed " << seed;
    }
}

TEST(CampaignChaos, KillResumeUnderChaosByteIdentical)
{
    // The full gauntlet: a chaos campaign whose supervisor is
    // SIGKILLed mid-run (power loss), then resumed *under a fresh
    // chaos schedule*.  The composite must still match the clean run
    // byte for byte.
    std::string dir = scratchDir("chaoskill");
    std::string json = dir + ".json";
    int st = runTool(drillArgs(dir) +
                     " --chaos-drill 55 --drill-die-after-results 2");
    ASSERT_TRUE(WIFSIGNALED(st) ||
                (WIFEXITED(st) && WEXITSTATUS(st) != 0));
    st = runTool(drillArgs(dir) + " --resume --chaos-drill 56 "
                 "--stats-json '" + json + "'");
    EXPECT_TRUE(WIFEXITED(st) && WEXITSTATUS(st) == 0)
        << "wait status " << st;
    EXPECT_EQ(slurp(json), referenceStatsJson());
}

TEST(CampaignFence, StaleFencedResultRejectedAtMerge)
{
    // Split-brain drill: finish a campaign, then advance job 0's
    // fence high-water mark past the fence its .result carries --
    // exactly what a zombie shard's late write looks like.  A resumed
    // campaign must REJECT that result at the merge, re-run the job
    // at the new epoch, and still produce the clean bytes.
    std::string dir = scratchDir("fence");
    std::string json = dir + ".json";
    int st = runTool(drillArgs(dir) + " --stats-json '" + json + "'");
    ASSERT_TRUE(WIFEXITED(st) && WEXITSTATUS(st) == 0);
    EXPECT_EQ(slurp(json), referenceStatsJson());

    CampaignConfig cfg = drillConfig(dir);
    CheckpointConfig ck;
    ck.dir = dir;
    std::vector<SimJob> jobs = campaignJobs(cfg);
    ASSERT_FALSE(jobs.empty());
    std::string rpath = resultPath(ck, 0, jobs[0].profile.name);
    ExperimentResult before;
    ASSERT_TRUE(readResultFile(rpath, &before));

    // The supervisor reclaimed the claim from a "dead" shard: the
    // durable mark moves past the result the shard already wrote.
    uint64_t mark = before.fence + 3;
    ASSERT_TRUE(writeFenceFile(campaignFencePath(cfg, 0), mark));

    std::string log = dir + ".resume.log";
    st = runTool(drillArgs(dir) + " --resume --stats-json '" + json +
                 "'", log);
    ASSERT_TRUE(WIFEXITED(st) && WEXITSTATUS(st) == 0);
    // Provably rejected: the supervisor said so, out loud...
    EXPECT_NE(slurp(log).find("stale fence"), std::string::npos)
        << slurp(log);
    // ...the re-run result carries the new epoch...
    ExperimentResult after;
    ASSERT_TRUE(readResultFile(rpath, &after));
    EXPECT_GE(after.fence, mark);
    // ...and the composite is still the clean bytes.
    EXPECT_EQ(slurp(json), referenceStatsJson());
}

// ---------------------------------------------------------------
// Flag validation (exit 2) and spec validation (exit 1).
// ---------------------------------------------------------------

TEST(IoFaultFlags, EpochRejectsGarbage)
{
    Argv a({"--spool", "sp", "--shard", "--shard-id", "0", "--epoch",
            "12junk"});
    EXPECT_EXIT(a.parse(), ::testing::ExitedWithCode(2),
                "not a non-negative wall-clock stamp");
    Argv b({"--spool", "sp", "--shard", "--shard-id", "0", "--epoch",
            "-5"});
    EXPECT_EXIT(b.parse(), ::testing::ExitedWithCode(2),
                "not a non-negative wall-clock stamp");
    Argv c({"--spool", "sp", "--shard", "--shard-id", "0", "--epoch",
            "nan"});
    EXPECT_EXIT(c.parse(), ::testing::ExitedWithCode(2),
                "not a non-negative wall-clock stamp");
}

TEST(IoFaultFlags, ShardIdAndPoisonJobRejectGarbage)
{
    Argv a({"--spool", "sp", "--shard", "--shard-id", "zero"});
    EXPECT_EXIT(a.parse(), ::testing::ExitedWithCode(2),
                "not a non-negative integer");
    Argv b({"--spool", "sp", "--drill-poison-job", "1.5"});
    EXPECT_EXIT(b.parse(), ::testing::ExitedWithCode(2),
                "not a non-negative integer");
}

TEST(IoFaultFlags, ChaosDrillExcludesExplicitIoFaults)
{
    Argv a({"--spool", "sp", "--chaos-drill", "7", "--io-faults",
            "eio@1"});
    EXPECT_EXIT(a.parse(), ::testing::ExitedWithCode(2),
                "mutually exclusive");
    Argv b({"--spool", "sp", "--chaos-drill", "7", "--in-process"});
    EXPECT_EXIT(b.parse(), ::testing::ExitedWithCode(2),
                "cannot combine with --in-process");
}

TEST(IoFaultFlags, BadIoFaultSpecIsFatalBeforeLaunch)
{
    Argv a({"--spool", "sp", "--io-faults", "enopsc@1"});
    EXPECT_EXIT(a.parse(), ::testing::ExitedWithCode(1),
                "unknown kind");
}

TEST(IoFaultFlags, IoFaultsParseIntoConfig)
{
    Argv a({"--spool", "sp", "--io-faults", "eio@2~.ckpt"});
    CampaignConfig cfg = a.parse();
    EXPECT_EQ(cfg.ioFaults, "eio@2~.ckpt");
    Argv b({"--spool", "sp", "--chaos-drill", "9"});
    CampaignConfig cfg2 = b.parse();
    EXPECT_EQ(cfg2.chaosSeed, 9u);
    EXPECT_TRUE(cfg2.ioFaults.empty());
}
