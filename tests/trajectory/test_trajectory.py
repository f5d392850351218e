"""Tests for the trajectory and trajectory-database models."""

import pytest

from repro.geometry.point import Point
from repro.trajectory.trajectory import Trajectory, TrajectoryDatabase


def straight_line_trajectory(object_id=0, n=5, dx=10.0):
    return Trajectory.from_coordinates(
        object_id, [(float(t), t * dx, 0.0) for t in range(n)]
    )


class TestTrajectory:
    def test_from_coordinates_sorts_by_time(self):
        traj = Trajectory.from_coordinates(1, [(2.0, 2.0, 0.0), (0.0, 0.0, 0.0), (1.0, 1.0, 0.0)])
        assert traj.timestamps() == [0.0, 1.0, 2.0]

    def test_basic_properties(self):
        traj = straight_line_trajectory(n=5)
        assert len(traj) == 5
        assert traj.start_time == 0.0
        assert traj.end_time == 4.0
        assert traj.duration == 4.0
        assert traj.lifespan == (0.0, 4.0)

    def test_empty_trajectory_properties_raise(self):
        empty = Trajectory(object_id=3)
        assert empty.is_empty()
        with pytest.raises(ValueError):
            _ = empty.start_time
        with pytest.raises(ValueError):
            _ = empty.end_time

    def test_add_sample_keeps_order(self):
        traj = Trajectory(object_id=0)
        traj.add_sample(5.0, Point(5.0, 0.0))
        traj.add_sample(1.0, Point(1.0, 0.0))
        traj.add_sample(3.0, Point(3.0, 0.0))
        assert traj.timestamps() == [1.0, 3.0, 5.0]

    def test_position_at_interpolates(self):
        traj = straight_line_trajectory(n=3, dx=10.0)
        assert traj.position_at(0.5) == Point(5.0, 0.0)
        assert traj.position_at(10.0) is None

    def test_length_and_speed(self):
        traj = straight_line_trajectory(n=5, dx=10.0)
        assert traj.length() == pytest.approx(40.0)
        assert traj.average_speed() == pytest.approx(10.0)

    def test_average_speed_degenerate(self):
        single = Trajectory.from_coordinates(0, [(0.0, 1.0, 1.0)])
        assert single.average_speed() == 0.0

    def test_slice_time(self):
        traj = straight_line_trajectory(n=10)
        sliced = traj.slice_time(2.0, 5.0)
        assert sliced.timestamps() == [2.0, 3.0, 4.0, 5.0]
        with pytest.raises(ValueError):
            traj.slice_time(5.0, 2.0)

    def test_resample(self):
        traj = straight_line_trajectory(n=5, dx=10.0)
        resampled = traj.resample([0.5, 1.5, 100.0])
        assert resampled.timestamps() == [0.5, 1.5]
        assert resampled.points()[0] == Point(5.0, 0.0)


class TestTrajectoryDatabase:
    def test_add_and_lookup(self):
        db = TrajectoryDatabase([straight_line_trajectory(object_id=1)])
        assert len(db) == 1
        assert 1 in db
        assert db[1].object_id == 1

    def test_add_merges_same_object(self):
        db = TrajectoryDatabase()
        db.add(Trajectory.from_coordinates(1, [(0.0, 0.0, 0.0)]))
        db.add(Trajectory.from_coordinates(1, [(1.0, 1.0, 0.0)]))
        assert len(db) == 1
        assert len(db[1]) == 2

    def test_add_sample_creates_object(self):
        db = TrajectoryDatabase()
        db.add_sample(7, 0.0, Point(0.0, 0.0))
        db.add_sample(7, 1.0, Point(1.0, 0.0))
        assert db[7].timestamps() == [0.0, 1.0]

    def test_time_domain_and_timestamps(self):
        db = TrajectoryDatabase(
            [
                Trajectory.from_coordinates(0, [(0.0, 0.0, 0.0), (4.0, 4.0, 0.0)]),
                Trajectory.from_coordinates(1, [(2.0, 0.0, 0.0), (9.0, 4.0, 0.0)]),
            ]
        )
        assert db.time_domain() == (0.0, 9.0)
        assert db.timestamps(step=3.0) == [0.0, 3.0, 6.0, 9.0]

    def test_time_domain_empty_raises(self):
        with pytest.raises(ValueError):
            TrajectoryDatabase().time_domain()

    def test_timestamps_invalid_step(self):
        db = TrajectoryDatabase([straight_line_trajectory()])
        with pytest.raises(ValueError):
            db.timestamps(step=0.0)

    def test_snapshot_interpolates_all_objects(self):
        db = TrajectoryDatabase(
            [
                straight_line_trajectory(object_id=0, n=5, dx=10.0),
                straight_line_trajectory(object_id=1, n=3, dx=20.0),
            ]
        )
        snap = db.snapshot(1.5)
        assert snap[0] == Point(15.0, 0.0)
        assert snap[1] == Point(30.0, 0.0)
        late = db.snapshot(3.5)
        assert 1 not in late  # object 1 ends at t=2
        assert 0 in late

    def test_slice_time_and_subset(self):
        db = TrajectoryDatabase(
            [straight_line_trajectory(object_id=i, n=6) for i in range(3)]
        )
        sliced = db.slice_time(1.0, 2.0)
        assert all(traj.timestamps() == [1.0, 2.0] for traj in sliced)
        subset = db.subset([0, 2])
        assert sorted(subset.object_ids()) == [0, 2]

    def test_extend_merges_databases(self):
        first = TrajectoryDatabase([straight_line_trajectory(object_id=0, n=3)])
        second = TrajectoryDatabase(
            [Trajectory.from_coordinates(0, [(5.0, 50.0, 0.0)]),
             straight_line_trajectory(object_id=1, n=2)]
        )
        first.extend(second)
        assert len(first) == 2
        assert first[0].end_time == 5.0

    def test_total_samples(self):
        db = TrajectoryDatabase(
            [straight_line_trajectory(object_id=0, n=4), straight_line_trajectory(object_id=1, n=6)]
        )
        assert db.total_samples() == 10


class TestFromColumns:
    ROWS = [
        (7, 2.0, 2.0, 0.5),
        (3, 0.0, 0.0, 0.0),
        (7, 1.0, 1.0, 0.5),
        (3, 1.0, 1.5, -0.0),
        (7, 1.0, 9.0, 9.0),  # a second sample at t=1 stays after the first
        (5, 4.0, 4.0, 4.0),
    ]

    def columns(self, rows=None):
        return [list(column) for column in zip(*(rows or self.ROWS))]

    def test_equals_adding_samples_one_by_one(self):
        expected = TrajectoryDatabase()
        for oid, t, x, y in self.ROWS:
            expected.add_sample(oid, t, Point(x, y))
        database = TrajectoryDatabase.from_columns(*self.columns())
        assert [tr.object_id for tr in database] == [7, 3, 5]
        for ours, theirs in zip(database, expected):
            assert repr(ours.samples) == repr(theirs.samples)
            assert ours.sample_triples().tobytes() == theirs.sample_triples().tobytes()
            assert ours == theirs

    def test_trajectories_share_one_array(self):
        rows = sorted(self.ROWS[:4], key=lambda row: (row[0], row[1]))
        database = TrajectoryDatabase.from_columns(*self.columns(rows))
        assert [tr.object_id for tr in database] == [3, 7]
        assert database[3].sample_triples().base is database[7].sample_triples().base

    def test_samples_are_built_on_first_read(self):
        database = TrajectoryDatabase.from_columns(*self.columns())
        trajectory = database[7]
        assert (len(trajectory), trajectory.start_time, trajectory.end_time) == (3, 1.0, 2.0)
        assert trajectory._samples is None
        assert trajectory.samples[0] == (1.0, Point(1.0, 0.5))
        assert all(type(value) is float for value in (trajectory.samples[0][0],
                                                      trajectory.samples[0][1].x))

    def test_lazy_trajectory_accepts_new_samples(self):
        trajectory = TrajectoryDatabase.from_columns(*self.columns())[3]
        trajectory.add_sample(0.5, Point(0.5, 0.5))
        assert trajectory.timestamps() == [0.0, 0.5, 1.0]
        assert trajectory.sample_triples()[:, 0].tolist() == [0.0, 0.5, 1.0]

    def test_empty_columns(self):
        assert len(TrajectoryDatabase.from_columns([], [], [], [])) == 0

    def test_pickle_round_trip(self):
        import pickle

        trajectory = TrajectoryDatabase.from_columns(*self.columns())[5]
        clone = pickle.loads(pickle.dumps(trajectory))
        assert clone == trajectory
