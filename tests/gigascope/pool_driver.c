/* A driver of the native library's pool for ThreadSanitizer.
 *
 * It includes the library's source (written next to it as lib.c, with
 * fail_walk: a walk whose folds fail) and runs, on a three-relation
 * forest AB(A B) over two shard slices with a value column, what the
 * Python side runs through the pool:
 *
 *   1. a multi-epoch walk on the caller and three helpers, each epoch's
 *      folds taken by the caller, against one thread;
 *   2. two-lane walks, the second lane a pool job, the caller taking
 *      the second lane's folds as each relation is marked walked;
 *   3. a partition hash split into three ranges, two of them jobs;
 *   4. calls whose job fails: a failed epoch sets the call's stop word
 *      and a job handed over after it does not run; a failing fold in
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
#define WALKS 4

static const int64_t parent[N_REL] = {-1, 0, 0};
static const int64_t key_off[N_REL + 1] = {0, 2, 3, 4};
static const int64_t key_col[4] = {0, 1, 0, 1};
static const uint64_t salt[N_REL] = {11, 12, 13};
static const int64_t n_buckets[N_REL] = {61, 7, 5};
static const int64_t depth[N_REL] = {0, 1, 1};
static const int64_t emit[N_REL] = {1, 1, 1};
static const int64_t feeds[N_REL] = {1, 0, 0};
static const int64_t fold_slot[N_REL] = {0, 1, 2};

/* Lanes: A on the second lane, waiting for AB; B on the first. */
static const int64_t lane[N_REL] = {0, 1, 0};
static const int64_t wait_off[N_REL + 1] = {0, 0, 1, 1};
static const int64_t wait_rel[1] = {0};

static uint64_t col_a[ROWS], col_b[ROWS];
static const uint64_t *const columns[2] = {col_a, col_b};
static double values[ROWS];
static int64_t shard[ROWS];
static int64_t times[LONGEST], ones[LONGEST];

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

    W->n_rel = N_REL;
    W->longest = LONGEST;
    W->max_buckets = 61 * SLICES;
    W->n_slices = SLICES;
    W->parent = parent;
    W->key_off = key_off;
    W->key_col = key_col;
    W->salt = salt;
    W->n_buckets = n_buckets;
    W->depth = depth;
    W->emit = emit;
    W->feeds = feeds;
    W->fold_slot = fold_slot;
    W->columns = columns;
    W->values = values;
    W->shard = shard;
    W->keys = calloc(key_off[N_REL], sizeof *W->keys);
    W->slot_run = malloc(W->max_buckets * sizeof(int64_t));
    W->bucket_pos = malloc(W->max_buckets * sizeof(int64_t));
    W->runs = malloc(LONGEST * sizeof(run_t));
    W->order = malloc(LONGEST * sizeof(order_t));
    W->ev_i = malloc(3 * LONGEST * sizeof(int64_t));
    W->ev_f = malloc(3 * LONGEST * sizeof(double));
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

/* Point both walks at the lanes sharing done, or back to one (NULL). */
static void point_lanes(walk_t *first, walk_t *second, int64_t *done)
{
    walk_t *walks[2] = {first, second};
    int64_t id;

    for (id = 0; id < 2; id++) {
        walks[id]->lane = done ? lane : NULL;
        walks[id]->wait_off = wait_off;
        walks[id]->wait_rel = wait_rel;
        walks[id]->done = done;
        walks[id]->other = walks[1 - id];
        walks[id]->lane_id = id;
    }
}

/* One two-lane walk of an epoch: the first lane here, the second a pool
 * job; the folds' digest in relation order, or 0 when the call failed. */
static uint64_t walk_lanes(walk_t *first, walk_t *second, int64_t epoch)
{
    static int64_t done[N_REL + 3];
    job_t job;
    uint64_t h = 0;
    int64_t r, failed;

    memset(done, 0, sizeof done);
    point_lanes(first, second, done);
    walk_job(&job, second, epoch, &done[N_REL]);
    check(repro_pool_submit(&job, 1) == 0, "a lane job found no helper",
          epoch);
    failed = repro_walk(first, epoch * LONGEST, times, ones, LONGEST) < 0;
    for (r = 0; r < N_REL && !failed; r++) {
        if (lane[r] == 1 && repro_walk_wait(first, r) < 0)
            failed = 1;
        else
            h = digest(lane[r] ? second : first, r, h);
    }
    if (failed)
        repro_walk_stop(first);
    if (repro_pool_wait(&job) < 0)
        failed = 1;
    point_lanes(first, second, NULL);
    return failed ? 0 : h;
}

int main(void)
{
    uint64_t want[EPOCHS], state = 7;
    walk_t *one, *walks[WALKS];
    job_t jobs[WALKS];
    int64_t i, e, k, stop;

    for (i = 0; i < ROWS; i++) {
        state = mix64(state);
        col_a[i] = state % 13;
        col_b[i] = (state >> 20) % 17;
        values[i] = (double)(state >> 40) / 1024.0;
        shard[i] = (int64_t)((state >> 8) % SLICES);
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

    /* 1. Epochs on the caller and three helpers, taken in epoch order. */
    for (e = 0; e < EPOCHS; e += WALKS) {
        for (k = 1; k < WALKS; k++)
            check(repro_pool_submit(walk_job(&jobs[k], walks[k], e + k - 1,
                                             NULL), WALKS - 1) == 0,
                  "an epoch job found no helper", e + k - 1);
        check(repro_walk(walks[0], (e + WALKS - 1) * LONGEST, times, ones,
                         LONGEST) == 0, "the caller's epoch failed", e);
        for (k = 1; k < WALKS; k++) {
            check(repro_pool_wait(&jobs[k]) == 0, "an epoch job failed",
                  e + k - 1);
            check(digest_all(walks[k]) == want[e + k - 1],
                  "a helper's epoch", e + k - 1);
        }
        check(digest_all(walks[0]) == want[e + WALKS - 1],
              "the caller's epoch", e + WALKS - 1);
    }

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
    for (k = 1; k < WALKS; k++)
        check(repro_pool_submit(walk_job(&jobs[k], walks[k], k, &stop),
                                WALKS - 1) == 0,
              "a failing call's job found no helper", k);
    check(repro_pool_wait(&jobs[2]) < 0, "the failing epoch's status", 2);
    check(__atomic_load_n(&stop, __ATOMIC_SEQ_CST) == 1,
          "the failing call's stop word", 2);
    for (k = 1; k < WALKS; k++)
        repro_pool_wait(&jobs[k]);
    check(repro_pool_submit(walk_job(&jobs[1], walks[1], 0, &stop),
                            WALKS - 1) == 0, "a job after the stop", 0);
    check(repro_pool_wait(&jobs[1]) < 0, "a job ran after the stop", 0);
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
