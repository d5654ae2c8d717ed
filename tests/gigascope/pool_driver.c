/* A driver of the native library's pool for ThreadSanitizer.
 *
 * It includes the library's source (written next to it as lib.c, with
 * fail_walk: a walk whose folds fail) and runs, on one forest_t of three
 * relations, AB(A B), over two shard slices with a value column, and
 * walks of it, what the Python side runs through the pool:
 *
 *   1. calls over several epochs that the caller and three helpers pull
 *      from one descriptor (epochs_t), with one more walk than threads
 *      and more epochs than walks, each epoch's folds taken by the
 *      caller, against one thread: as fast as the caller can, and with
 *      a caller that sleeps before each take, so that helpers park
 *      epochs and wait for a free walk;
 *   2. two-lane walks, the forest's holder naming each relation's walk,
 *      the second lane a pool job, the caller taking the second lane's
 *      folds as each relation is marked walked;
 *   3. a partition hash split into three ranges, two of them jobs;
 *   4. calls whose job fails: a failed epoch sets the call's stop word
 *      and a job handed over after it does not run; a pulled epoch that
 *      fails on a helper while other epochs are parked stops the call;
 *      a caller that sets the stop word ends it; a failing fold in
 *      either lane stops the other.
 *
 * It prints "ok" and exits 0, or names the first mismatch and exits 1.
 * Build: cc -fsanitize=thread -g -O1 -pthread driver.c -o driver. */

#include "lib.c"

#include <stdio.h>

#define N_REL 3
#define SLICES 2
#define ROWS 4000
#define EPOCHS 8
#define LONGEST (ROWS / EPOCHS)
#define HELPERS 3
#define WALKS (HELPERS + 2)     /* one more than the caller and helpers */
#define ROW (EPOCH_HEAD + SEED_WORDS * N_REL)

static const int64_t parent[N_REL] = {-1, 0, 0};
static const int64_t key_off[N_REL + 1] = {0, 2, 3, 4};
static const int64_t key_col[4] = {0, 1, 0, 1};
static const uint64_t salt[N_REL] = {11, 12, 13};
static const int64_t n_buckets[N_REL] = {61, 7, 5};
static const int64_t depth[N_REL] = {0, 1, 1};
static const int64_t emit[N_REL] = {1, 1, 1};
static const int64_t feeds[N_REL] = {1, 0, 0};   /* AB's list: slot 0 */
static const int64_t fold_slot[N_REL] = {0, 1, 2};

/* Lanes: A on the second lane, waiting for its parent AB; B on the
 * first. */
static const int64_t lane[N_REL] = {0, 1, 0};

static uint64_t col_a[ROWS], col_b[ROWS];
static const uint64_t *const columns[2] = {col_a, col_b};
static double values[ROWS];
static int64_t shard[ROWS];
static int64_t times[LONGEST], ones[LONGEST];
static uint64_t words[EPOCHS][ROW];     /* no seeds: every seed word 0 */
static int64_t state[EPOCHS], idle[WALKS];

static int64_t done[N_REL + 1];
static forest_t forest = {
    N_REL, 61 * SLICES, SLICES, parent, key_off, key_col, salt, n_buckets,
    depth, emit, feeds, fold_slot, columns, values, shard, done, NULL};

static int failures;

static void check(int ok, const char *what, int64_t at)
{
    if (!ok && failures++ == 0)
        printf("mismatch: %s at %lld\n", what, (long long)at);
}

static walk_t *new_walk(void)
{
    walk_t *W = calloc(1, sizeof *W);
    int64_t r;

    W->forest = &forest;
    W->longest = LONGEST;
    W->keys = calloc(key_off[N_REL], sizeof *W->keys);
    W->slot_run = malloc(forest.max_buckets * sizeof(int64_t));
    W->bucket_pos = malloc(forest.max_buckets * sizeof(int64_t));
    check(repro_walk_reserve(W, LONGEST, 1, 1) == 0, "a walk's scratch", 0);
    W->folds = calloc(N_REL, sizeof(fold_t));
    for (r = 0; r < N_REL; r++) {
        W->folds[r].rep = malloc(LONGEST * sizeof(int64_t));
        W->folds[r].w = malloc(LONGEST * sizeof(int64_t));
        W->folds[r].vs = malloc(LONGEST * sizeof(double));
        W->folds[r].vmin = malloc(LONGEST * sizeof(double));
        W->folds[r].vmax = malloc(LONGEST * sizeof(double));
    }
    W->n_runs = calloc(N_REL, sizeof(int64_t));
    W->stats = calloc(4 * N_REL, sizeof(int64_t));
    return W;
}

/* h extended by relation r's fold of W's last walk, taken as the
 * caller takes it. */
static uint64_t digest(const walk_t *W, int64_t r, uint64_t h)
{
    static int64_t block[6 * LONGEST];
    const int64_t n = W->folds[fold_slot[r]].n_groups;
    const int64_t k = key_off[r + 1] - key_off[r];
    int64_t i;

    repro_walk_take(W, r, block);
    for (i = 0; i < (4 + k) * n; i++)
        h = mix64(h ^ (uint64_t)block[i]);
    return mix64(h ^ (uint64_t)n);
}

static uint64_t digest_all(const walk_t *W)
{
    uint64_t h = 0;
    int64_t r;

    for (r = 0; r < N_REL; r++)
        h = digest(W, r, h);
    return h;
}

static job_t *walk_job(job_t *job, walk_t *W, int64_t epoch, int64_t *stop)
{
    memset(job, 0, sizeof *job);
    job->kind = JOB_WALK;
    job->stop = stop;
    job->arg[0] = (uint64_t)(uintptr_t)W;
    job->arg[1] = (uint64_t)(epoch * LONGEST);
    job->arg[2] = (uint64_t)(uintptr_t)times;
    job->arg[3] = (uint64_t)(uintptr_t)ones;
    job->arg[4] = LONGEST;
    return job;
}

/* A fresh call over every epoch, pulled on the first n_walks walks. */
static epochs_t *new_call(epochs_t *C, walk_t **walks, int64_t n_walks)
{
    int64_t e;

    memset(C, 0, sizeof *C);
    memset(state, 0, sizeof state);
    for (e = 0; e < n_walks; e++)
        idle[e] = 1;
    for (e = 0; e < EPOCHS; e++) {
        words[e][0] = (uint64_t)(e * LONGEST);
        words[e][1] = LONGEST;
        words[e][2] = (uint64_t)(uintptr_t)times;
        words[e][3] = (uint64_t)(uintptr_t)ones;
    }
    C->n_epochs = EPOCHS;
    C->n_walks = n_walks;
    C->row = ROW;
    C->epochs = &words[0][0];
    C->walks = walks;
    C->state = state;
    C->idle = idle;
    C->free = n_walks;
    return C;
}

/* Hand the helpers their jobs of call C. */
static void pull_jobs(epochs_t *C, job_t *jobs)
{
    int64_t k;

    for (k = 0; k < HELPERS; k++) {
        memset(&jobs[k], 0, sizeof jobs[k]);
        jobs[k].kind = JOB_EPOCHS;
        jobs[k].stop = &C->stop;
        jobs[k].arg[0] = (uint64_t)(uintptr_t)C;
        check(repro_pool_submit(&jobs[k], HELPERS) == 0,
              "an epochs job found no helper", k);
    }
}

/* The caller's part of call C, as ingest_epochs plays it: each epoch's
 * folds as repro_epochs_next hands them over, checked against want,
 * after a sleep of nap_ns before each take; with stop_at >= 0 the
 * caller sets the stop word in place of its take number stop_at. Waits
 * for every job; returns the epochs taken. */
static int64_t pull(epochs_t *C, long nap_ns, int64_t stop_at,
                    const uint64_t *want)
{
    const struct timespec nap = {0, nap_ns};
    job_t jobs[HELPERS];
    int64_t e = -1, k, taken = 0, seen[EPOCHS] = {0};

    pull_jobs(C, jobs);
    for (;;) {
        if (taken == stop_at) {
            repro_epochs_stop(C);
            break;
        }
        e = repro_epochs_next(C, e);
        if (e < 0 || e == EPOCHS)
            break;
        check(!seen[e]++, "an epoch handed over twice", e);
        if (nap_ns)
            nanosleep(&nap, NULL);
        check(digest_all(C->walks[C->state[e] - 1]) == want[e],
              "a pulled epoch", e);
        taken++;
    }
    check(e != EPOCHS || taken == EPOCHS, "an epoch not handed over", e);
    for (k = 0; k < HELPERS; k++)
        repro_pool_wait(&jobs[k]);
    return taken;
}

/* One two-lane walk of an epoch: the first lane here, the second a pool
 * job; the folds' digest in relation order, or 0 when the call failed. */
static uint64_t walk_lanes(walk_t *first, walk_t *second, int64_t epoch)
{
    const walk_t *holder[N_REL];
    job_t job;
    uint64_t h = 0;
    int64_t r, failed;

    for (r = 0; r < N_REL; r++)
        holder[r] = lane[r] ? second : first;
    memset(done, 0, sizeof done);
    forest.holder = holder;
    walk_job(&job, second, epoch, &done[N_REL]);
    check(repro_pool_submit(&job, 1) == 0, "a lane job found no helper",
          epoch);
    failed = repro_walk(first, epoch * LONGEST, times, ones, LONGEST) < 0;
    for (r = 0; r < N_REL && !failed; r++) {
        if (lane[r] == 1 && repro_walk_wait(&forest, r) < 0)
            failed = 1;
        else
            h = digest(holder[r], r, h);
    }
    if (repro_pool_wait(&job) < 0)
        failed = 1;
    forest.holder = NULL;
    return failed ? 0 : h;
}

int main(void)
{
    const struct timespec tick = {0, 100000};
    uint64_t want[EPOCHS], seed = 7;
    walk_t *one, *walks[WALKS];
    job_t jobs[HELPERS + 1];
    epochs_t call;
    int64_t i, e, k, stop;

    for (i = 0; i < ROWS; i++) {
        seed = mix64(seed);
        col_a[i] = seed % 13;
        col_b[i] = (seed >> 20) % 17;
        values[i] = (double)(seed >> 40) / 1024.0;
        shard[i] = (int64_t)((seed >> 8) % SLICES);
    }
    for (i = 0; i < LONGEST; i++) {
        times[i] = i;
        ones[i] = 1;
    }
    one = new_walk();
    for (e = 0; e < EPOCHS; e++) {
        check(repro_walk(one, e * LONGEST, times, ones, LONGEST) == 0,
              "a walk on one thread failed", e);
        want[e] = digest_all(one);
    }
    for (k = 0; k < WALKS; k++)
        walks[k] = new_walk();

    /* 1. Epochs pulled by the caller and three helpers, taken in epoch
     * order: at once, and after a nap before each take. */
    for (k = 0; k < 4; k++) {
        check(pull(new_call(&call, walks, WALKS), 0, -1, want) == EPOCHS,
              "a pulled call", k);
        check(call.by_caller >= 0 && call.by_caller <= EPOCHS,
              "the caller's epochs", k);
    }
    check(pull(new_call(&call, walks, WALKS), 2000000, -1, want) == EPOCHS,
          "a pulled call with naps", 0);

    /* 2. Two lanes, every epoch. */
    for (e = 0; e < EPOCHS; e++)
        check(walk_lanes(walks[0], walks[1], e) == want[e], "two lanes", e);

    /* 3. A partition hash in three ranges, two of them jobs. */
    {
        static int64_t whole[ROWS], split[ROWS];
        const int64_t edge[4] = {0, ROWS / 3, 2 * ROWS / 3, ROWS};
        const uint64_t *shifted[3][2];
        job_t hashes[3];

        repro_partition_hash((const uint64_t **)columns, 2, ROWS, 99, 5,
                             whole);
        for (k = 0; k < 3; k++) {
            shifted[k][0] = col_a + edge[k];
            shifted[k][1] = col_b + edge[k];
            memset(&hashes[k], 0, sizeof hashes[k]);
            hashes[k].kind = JOB_HASH;
            hashes[k].arg[0] = (uint64_t)(uintptr_t)shifted[k];
            hashes[k].arg[1] = 2;
            hashes[k].arg[2] = (uint64_t)(edge[k + 1] - edge[k]);
            hashes[k].arg[3] = 99;
            hashes[k].arg[4] = 5;
            hashes[k].arg[5] = (uint64_t)(uintptr_t)(split + edge[k]);
        }
        for (k = 1; k < 3; k++)
            check(repro_pool_submit(&hashes[k], 2) == 0,
                  "a range job found no helper", k);
        repro_partition_hash(shifted[0], 2, edge[1], 99, 5, split);
        for (k = 1; k < 3; k++)
            check(repro_pool_wait(&hashes[k]) == 0, "a range job", k);
        check(memcmp(whole, split, sizeof whole) == 0, "the split hash", 0);
    }

    /* 4. A failing epoch sets the call's stop word; a job handed over
     * after it does not run. A failing fold in either lane stops the
     * other. */
    fail_walk = walks[2];
    stop = 0;
    for (k = 1; k <= HELPERS; k++)
        check(repro_pool_submit(walk_job(&jobs[k], walks[k], k, &stop),
                                HELPERS) == 0,
              "a failing call's job found no helper", k);
    check(repro_pool_wait(&jobs[2]) < 0, "the failing epoch's status", 2);
    check(__atomic_load_n(&stop, __ATOMIC_SEQ_CST) == 1,
          "the failing call's stop word", 2);
    for (k = 1; k <= HELPERS; k++)
        repro_pool_wait(&jobs[k]);
    check(repro_pool_submit(walk_job(&jobs[1], walks[1], 0, &stop),
                            HELPERS) == 0, "a job after the stop", 0);
    check(repro_pool_wait(&jobs[1]) < 0, "a job ran after the stop", 0);

    /* A pulled epoch fails on a helper while the others park: the
     * caller claims nothing before the stop word is set, as the helpers
     * fill the free walks, lowest first, and fail on walks[3]; then
     * nothing is taken, no epoch past the walks was claimed and no
     * epoch's state names the failed walk. */
    fail_walk = walks[3];
    new_call(&call, walks, WALKS);
    pull_jobs(&call, jobs);
    while (!__atomic_load_n(&call.stop, __ATOMIC_SEQ_CST))
        nanosleep(&tick, NULL);
    check(repro_epochs_next(&call, 0) < 0, "a take after a helper failed",
          0);
    for (k = 0; k < HELPERS; k++)
        repro_pool_wait(&jobs[k]);
    check(call.by_caller == 0, "the caller walked before the failure", 0);
    check(call.next <= WALKS, "an epoch claimed past the walks", call.next);
    for (e = 0; e < EPOCHS; e++)
        check(state[e] != 1 + 3, "the failed walk's epoch", e);
    fail_walk = NULL;

    /* The caller sets the stop word after two takes: the call ends,
     * every job returns, and the walks pull a whole call again. */
    check(pull(new_call(&call, walks, WALKS), 0, 2, want) == 2,
          "a call the caller stopped", 2);
    check(call.stop == 1 && call.next <= 2 + WALKS,
          "the stopped call's words", call.next);
    check(pull(new_call(&call, walks, WALKS), 0, -1, want) == EPOCHS,
          "a pulled call after the stops", 0);
    for (k = 0; k < 2; k++) {
        fail_walk = walks[k];
        check(walk_lanes(walks[0], walks[1], 0) == 0,
              "a failing lane's call succeeded", k);
    }
    fail_walk = NULL;
    check(walk_lanes(walks[0], walks[1], 3) == want[3],
          "two lanes after a failure", 3);

    if (failures)
        return 1;
    printf("ok\n");
    return 0;
}
