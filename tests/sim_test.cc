/**
 * @file
 * Unit tests for the simulation kernel: channel rotation, event queue,
 * engine clock domains, and two-phase ordering guarantees.
 */

#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "sim/engine.hh"
#include "sim/event_queue.hh"
#include "sim/rotatable.hh"

namespace locsim {
namespace sim {
namespace {

/** The smallest latched channel: push() stages, rotate() publishes. */
class Latch final : public Rotatable
{
  public:
    void
    push(int value)
    {
        staged_.push_back(value);
        markDirty();
    }

    bool empty() const { return visible_.empty(); }
    int front() const { return visible_.front(); }

    int
    pop()
    {
        const int value = visible_.front();
        visible_.pop_front();
        return value;
    }

    void
    rotate() override
    {
        dirty_ = false;
        visible_.insert(visible_.end(), staged_.begin(), staged_.end());
        staged_.clear();
    }

  private:
    std::deque<int> visible_;
    std::deque<int> staged_;
};

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(10, [&] { order.push_back(2); });
    q.schedule(5, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(3); });
    EXPECT_EQ(q.nextTick(), 5u);
    EXPECT_EQ(q.runUntil(15), 2u);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(q.runUntil(25), 1u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.nextTick(), kTickNever);
}

TEST(EventQueue, SameTickFifoOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        q.schedule(7, [&order, i] { order.push_back(i); });
    q.runUntil(7);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CallbackCanScheduleMore)
{
    EventQueue q;
    int fired = 0;
    q.schedule(1, [&] {
        ++fired;
        q.schedule(1, [&] { ++fired; });
        q.schedule(5, [&] { ++fired; });
    });
    EXPECT_EQ(q.runUntil(1), 2u);
    EXPECT_EQ(fired, 2);
    q.runUntil(10);
    EXPECT_EQ(fired, 3);
}

TEST(EventQueue, ClearDropsPending)
{
    EventQueue q;
    int fired = 0;
    q.schedule(1, [&] { ++fired; });
    q.clear();
    q.runUntil(100);
    EXPECT_EQ(fired, 0);
}

TEST(EventQueue, DuplicateTimestampsInterleavedWithOthers)
{
    // Schedule a jumbled mix of ticks with heavy duplication; firing
    // order must be (tick, scheduling order) regardless of the heap's
    // internal layout.
    EventQueue q;
    std::vector<std::pair<Tick, int>> order;
    const Tick ticks[] = {9, 3, 9, 1, 3, 9, 1, 20, 3, 9};
    for (int i = 0; i < 10; ++i)
        q.schedule(ticks[i],
                   [&order, t = ticks[i], i] {
                       order.push_back({t, i});
                   });
    q.runUntil(30);
    const std::vector<std::pair<Tick, int>> expected = {
        {1, 3}, {1, 6}, {3, 1}, {3, 4}, {3, 8},
        {9, 0}, {9, 2}, {9, 5}, {9, 9}, {20, 7}};
    EXPECT_EQ(order, expected);
}

TEST(EventQueue, EqualKeyPopOrderStableAtScale)
{
    // Enough same-tick events to force many sift-down paths through
    // the binary heap; the sequence number must keep them FIFO.
    EventQueue q;
    std::vector<int> order;
    constexpr int kEvents = 1000;
    for (int i = 0; i < kEvents; ++i)
        q.schedule(5, [&order, i] { order.push_back(i); });
    EXPECT_EQ(q.size(), static_cast<std::size_t>(kEvents));
    EXPECT_EQ(q.runUntil(5), static_cast<std::size_t>(kEvents));
    for (int i = 0; i < kEvents; ++i)
        ASSERT_EQ(order[i], i);
}

TEST(EventQueue, InterleavedPushPopKeepsOrder)
{
    // Drain in stages, pushing between stages — including pushing a
    // tick equal to one already pending. Later-scheduled events at an
    // equal tick fire after the earlier-scheduled ones.
    EventQueue q;
    std::vector<int> order;
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(30, [&] { order.push_back(5); });
    EXPECT_EQ(q.runUntil(10), 1u);
    q.schedule(30, [&] { order.push_back(6); });
    q.schedule(20, [&] { order.push_back(3); });
    q.schedule(20, [&] { order.push_back(4); });
    q.schedule(15, [&] { order.push_back(2); });
    EXPECT_EQ(q.runUntil(29), 3u);
    EXPECT_EQ(q.runUntil(30), 2u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6}));
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SurvivesFastForwardOverLargeGaps)
{
    // The engine's fast-forward path jumps now() straight to
    // nextTick() while the machine is quiescent; events separated by
    // huge gaps must still fire exactly once, in order, and nextTick()
    // must always report the true next deadline for the skip.
    EventQueue q;
    std::vector<Tick> fired;
    q.schedule(1, [&] { fired.push_back(1); });
    q.schedule(1'000'000, [&] { fired.push_back(1'000'000); });
    q.schedule(1'000'000'000, [&] { fired.push_back(1'000'000'000); });
    EXPECT_EQ(q.runUntil(1), 1u);
    EXPECT_EQ(q.nextTick(), 1'000'000u);
    EXPECT_EQ(q.runUntil(q.nextTick()), 1u);
    // Schedule behind the next deadline mid-flight.
    q.schedule(2'000'000, [&] { fired.push_back(2'000'000); });
    EXPECT_EQ(q.nextTick(), 2'000'000u);
    EXPECT_EQ(q.runUntil(q.nextTick()), 1u);
    EXPECT_EQ(q.runUntil(q.nextTick()), 1u);
    EXPECT_EQ(fired, (std::vector<Tick>{1, 1'000'000, 2'000'000,
                                        1'000'000'000}));
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, PushDuringPopAtCurrentTickRunsThisSweep)
{
    // An event firing at tick t that schedules another event at t must
    // see it run within the same runUntil(t) sweep, after every event
    // scheduled before it (the two-phase engine relies on this).
    EventQueue q;
    std::vector<int> order;
    q.schedule(4, [&] {
        order.push_back(0);
        q.schedule(4, [&] { order.push_back(2); });
    });
    q.schedule(4, [&] { order.push_back(1); });
    EXPECT_EQ(q.runUntil(4), 3u);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

/** Records the ticks at which it was clocked. */
class TickRecorder : public Clocked
{
  public:
    void tick(Tick now) override { ticks.push_back(now); }
    std::vector<Tick> ticks;
};

TEST(Engine, PeriodAndOffsetRespected)
{
    Engine engine;
    TickRecorder fast, slow, offset;
    engine.addClocked(&fast, 1);
    engine.addClocked(&slow, 2);
    engine.addClocked(&offset, 2, 1);
    engine.run(6);
    EXPECT_EQ(fast.ticks, (std::vector<Tick>{0, 1, 2, 3, 4, 5}));
    EXPECT_EQ(slow.ticks, (std::vector<Tick>{0, 2, 4}));
    EXPECT_EQ(offset.ticks, (std::vector<Tick>{1, 3, 5}));
    EXPECT_EQ(engine.now(), 6u);
}

TEST(Engine, RunUntilPredicate)
{
    Engine engine;
    TickRecorder counter;
    engine.addClocked(&counter, 1);
    const bool hit = engine.runUntil(
        [&] { return counter.ticks.size() >= 10; }, 100);
    EXPECT_TRUE(hit);
    EXPECT_EQ(engine.now(), 10u);
}

TEST(Engine, RunUntilTimesOut)
{
    Engine engine;
    const bool hit = engine.runUntil([] { return false; }, 50);
    EXPECT_FALSE(hit);
    EXPECT_EQ(engine.now(), 50u);
}

TEST(Engine, EventsFireBeforeComponents)
{
    Engine engine;
    std::vector<std::string> order;

    class Named : public Clocked
    {
      public:
        Named(std::vector<std::string> &log) : log_(log) {}
        void tick(Tick) override { log_.push_back("component"); }

      private:
        std::vector<std::string> &log_;
    };

    Named component(order);
    engine.addClocked(&component, 1);
    engine.events().schedule(0, [&] { order.push_back("event"); });
    engine.run(1);
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], "event");
    EXPECT_EQ(order[1], "component");
}

/**
 * Two components exchanging values through channels must behave
 * identically regardless of registration order — the channel latch
 * guarantees cycle t pushes are seen at cycle t+1.
 */
class PingPong : public Clocked
{
  public:
    PingPong(Latch &in, Latch &out) : in_(in), out_(out) {}

    void
    tick(Tick) override
    {
        while (!in_.empty())
            received.push_back(in_.pop());
        out_.push(static_cast<int>(sent++));
    }

    std::vector<int> received;
    std::size_t sent = 0;

  private:
    Latch &in_;
    Latch &out_;
};

TEST(Engine, ChannelLatchingMakesOrderIrrelevant)
{
    auto run = [](bool a_first) {
        Engine engine;
        Latch ab, ba;
        engine.addChannel(&ab);
        engine.addChannel(&ba);
        PingPong a(ba, ab), b(ab, ba);
        if (a_first) {
            engine.addClocked(&a, 1);
            engine.addClocked(&b, 1);
        } else {
            engine.addClocked(&b, 1);
            engine.addClocked(&a, 1);
        }
        engine.run(10);
        return std::make_pair(a.received, b.received);
    };
    const auto forward = run(true);
    const auto backward = run(false);
    EXPECT_EQ(forward.first, backward.first);
    EXPECT_EQ(forward.second, backward.second);
    // Value sent at cycle t arrives at cycle t+1: 9 values seen.
    EXPECT_EQ(forward.first.size(), 9u);
    EXPECT_EQ(forward.first.front(), 0);
}

TEST(Rotatable, DirtyFlagTracksStagedValues)
{
    Latch ch;
    EXPECT_FALSE(ch.dirty());
    ch.push(1);
    EXPECT_TRUE(ch.dirty());
    ch.push(2); // second push of the cycle keeps it dirty
    EXPECT_TRUE(ch.dirty());
    ch.rotate();
    EXPECT_FALSE(ch.dirty());
    ch.push(3);
    EXPECT_TRUE(ch.dirty());
}

TEST(Rotatable, DirtyListEnrolsOncePerCycle)
{
    std::vector<Rotatable *> dirty;
    Latch ch;
    ch.bindDirtyList(&dirty);
    ch.push(1);
    ch.push(2);
    ASSERT_EQ(dirty.size(), 1u);
    EXPECT_EQ(dirty[0], &ch);
    ch.rotate();
    dirty.clear();
    ch.push(3);
    EXPECT_EQ(dirty.size(), 1u);
}

TEST(Engine, ReferenceModeMatchesActivityTickSchedule)
{
    auto run = [](Engine::StepMode mode) {
        Engine engine;
        engine.setStepMode(mode);
        TickRecorder fast, slow, offset, slower;
        engine.addClocked(&fast, 1);
        engine.addClocked(&slow, 2);
        engine.addClocked(&offset, 2, 1);
        engine.addClocked(&slower, 3, 2);
        engine.run(13);
        return std::vector<std::vector<Tick>>{
            fast.ticks, slow.ticks, offset.ticks, slower.ticks};
    };
    EXPECT_EQ(run(Engine::StepMode::Activity),
              run(Engine::StepMode::Reference));
}

/**
 * Does three ticks of work, sleeps via the event queue for a while,
 * then works again — the quiescence pattern the fast-forward path
 * must handle: idle ticks are credited, work ticks land on the same
 * cycles as in reference mode.
 */
class BurstWorker : public Clocked
{
  public:
    explicit BurstWorker(Engine &engine) : engine_(engine) {}

    void
    tick(Tick now) override
    {
        if (work_remaining == 0) {
            ++idle_ticks; // what an idle poll would have cost
            return;
        }
        work_ticks.push_back(now);
        if (--work_remaining == 0 && naps_left > 0) {
            --naps_left;
            engine_.events().schedule(
                now + 16, [this] { work_remaining = 3; });
        }
    }

    bool busy() const override { return work_remaining > 0; }

    void skipIdle(Tick ticks) override { idle_ticks += ticks; }

    std::vector<Tick> work_ticks;
    Tick idle_ticks = 0;
    int work_remaining = 3;
    int naps_left = 2;

  private:
    Engine &engine_;
};

TEST(Engine, FastForwardMatchesReferenceAndCreditsIdleTicks)
{
    auto run = [](Engine::StepMode mode) {
        Engine engine;
        engine.setStepMode(mode);
        BurstWorker worker(engine);
        engine.addClocked(&worker, 1);
        engine.run(64);
        EXPECT_EQ(engine.now(), 64u);
        return std::make_pair(worker.work_ticks, worker.idle_ticks);
    };
    const auto activity = run(Engine::StepMode::Activity);
    const auto reference = run(Engine::StepMode::Reference);
    EXPECT_EQ(activity.first, reference.first);
    EXPECT_EQ(activity.second, reference.second);
    // Sanity: work resumed exactly one tick after each 16-tick nap.
    EXPECT_EQ(activity.first,
              (std::vector<Tick>{0, 1, 2, 18, 19, 20, 36, 37, 38}));
}

TEST(Engine, FastForwardSkipsTicksWhileQuiescent)
{
    Engine engine;
    BurstWorker worker(engine);
    engine.addClocked(&worker, 1);
    engine.run(64);
    EXPECT_GT(engine.skippedTicks(), 0u);
    // Skipped plus stepped ticks account for the whole run.
    EXPECT_EQ(worker.work_ticks.size() + worker.idle_ticks, 64u);
}

TEST(Engine, FastForwardCreditsSlowClockCorrectly)
{
    // A period-4 offset-1 component sleeping through a skip must be
    // credited one skipIdle tick per *due* cycle, not per engine tick.
    auto run = [](Engine::StepMode mode) {
        Engine engine;
        engine.setStepMode(mode);
        BurstWorker worker(engine);
        engine.addClocked(&worker, 4, 1);
        engine.run(100);
        return std::make_pair(worker.work_ticks, worker.idle_ticks);
    };
    const auto activity = run(Engine::StepMode::Activity);
    const auto reference = run(Engine::StepMode::Reference);
    EXPECT_EQ(activity.first, reference.first);
    EXPECT_EQ(activity.second, reference.second);
}

TEST(Engine, ManualChannelPushRotatesBeforeAnySkip)
{
    // A test (or component outside the tick loop) staging a value by
    // hand must see it become visible after exactly one tick even if
    // the whole machine is otherwise quiescent.
    Engine engine;
    Latch ch;
    engine.addChannel(&ch);
    BurstWorker worker(engine);
    worker.work_remaining = 0; // idle from the start
    worker.naps_left = 0;
    engine.addClocked(&worker, 1);
    ch.push(7);
    engine.run(5);
    EXPECT_EQ(engine.now(), 5u);
    ASSERT_FALSE(ch.empty());
    EXPECT_EQ(ch.front(), 7);
    EXPECT_EQ(worker.idle_ticks, 5u);
}

TEST(Engine, ChannelRegisteredDirtyRotatesOnFirstTick)
{
    // Registration after a manual push must still rotate on schedule.
    Engine engine;
    Latch ch;
    ch.push(3);
    engine.addChannel(&ch);
    engine.run(1);
    ASSERT_FALSE(ch.empty());
    EXPECT_EQ(ch.front(), 3);
}

} // namespace
} // namespace sim
} // namespace locsim
